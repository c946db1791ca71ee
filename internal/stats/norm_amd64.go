//go:build !race

package stats

import "vasched/internal/cpufeat"

// normKernel reports whether NormFill runs the AVX2 kernel (which also
// uses BMI2's SHRX), chosen once per process. Race builds leave the
// assembly out (norm_other.go): the race detector does not see its
// memory accesses.
var normKernel = cpufeat.AVX2() && cpufeat.BMI2()

// normKernelMin is the shortest fill that runs on the kernel; below it
// the calls and the wedge pass cost more than the Go loop saves, as for
// SAnn's 20-draw proposals. normKernelRun is the shortest rest of a fill
// that starts another kernel run.
const (
	normKernelMin = 64
	normKernelRun = 16
)

// The kernel steps the register four words at a time and runs the
// ziggurat's fast test and value on all four, with no branch on the
// draws. It relies on one fact about the ziggurat: a draw in strip i ≥ 1
// that fails the fast test always reads exactly one more word, the
// wedge's uniform, and the wedge test only decides whether the slot holds
// x or closes up behind the next first draw. Which words are first draws
// therefore does not depend on any wedge test. The kernel writes every
// first draw's x to the next slot and lists each group of four words that
// opens a wedge; settle then runs the wedge tests together and closes up
// the slots of the wedges that reject. A group with a strip-0 tail, whose
// uniforms are drawn in a loop, ends the run before its words are
// stepped, and so does the end of the ring: the Go loop draws past them.

// normRun carries one kernel run's bounds in and its results out.
type normRun struct {
	tap, feed int // the register's indices, 0 read as rngLen
	groups    int // groups of four words to run, at most min(tap, feed, len(dst))/4
	left      int // out: 4 × the groups not run
	slots     int // out: slots written, wedges included
	listed    int // out: groups listed in recs
	carry     int // out: 16 when the last word read opens a wedge
}

// normRec lists a group that opens a wedge: tag is the group's key plus
// 8 × the run's left count as the group starts, and slot is the dst index
// of its first slot.
type normRec struct {
	tag, slot uint32
}

// normWedge is a wedge for settle to test: its slot, the register index
// of its first draw, and its uniform.
type normWedge struct {
	slot, word int32
	u          float64
}

// normScratch holds what one kernel run lists. A run ends at the end of
// the ring, so it has at most rngLen/4 groups.
type normScratch struct {
	recs   [rngLen / 4]normRec
	wedges [2*rngLen/4 + 1]normWedge
}

// normGroup is the kernel's row for a group of four words, indexed by the
// group's key: bit 4 set when its first word is the uniform of the last
// group's final draw, and bit L set when the word in register lane L,
// draw 3−L, fails the fast test.
type normGroup struct {
	perm  [8]int32 // VPERMD control: the lanes of the draws that fill a slot, in draw order
	slots int64    // slots the group fills
	list  int64    // 1 when the group opens a wedge and is listed
	// For settle: the draw and the slot, counted from the group's first,
	// of each of its wedges (at most two), and how many there are.
	draw, slot [2]uint8
	wedges     uint8
	_          [11]uint8
}

// groupDraws decodes a group's key: fill has bit d set for the draws d
// that fill a slot, wedge for those that open a wedge, and carry reports
// whether draw 3 opens one, so that the next group's first word is its
// uniform.
func groupDraws(key int) (fill, wedge uint8, carry bool) {
	uniform := key&16 != 0
	for d := 0; d < 4; d++ {
		if uniform {
			uniform = false
			continue
		}
		fill |= 1 << d
		if key>>(3-d)&1 != 0 {
			wedge |= 1 << d
			uniform = true
		}
	}
	return fill, wedge, uniform
}

// The kernel's tables, which the assembly reads by name: kn and wn as
// float64 for its gathers, a row per group key, and normCarries, whose
// bit key+4 is set when the group with that key carries a wedge into the
// next one.
var (
	normStrips = func() (t [2][128]float64) {
		for i := range kn {
			t[0][i], t[1][i] = float64(kn[i]), float64(wn[i])
		}
		return t
	}()
	normGroups, normCarries = func() (t [32]normGroup, carries uint64) {
		for key := range t {
			fill, wedge, carry := groupDraws(key)
			g := &t[key]
			for d := uint8(0); d < 4; d++ {
				if fill>>d&1 == 0 {
					continue
				}
				lane := int32(3 - d)
				g.perm[2*g.slots], g.perm[2*g.slots+1] = 2*lane, 2*lane+1
				if wedge>>d&1 != 0 {
					g.draw[g.wedges], g.slot[g.wedges] = d, uint8(g.slots)
					g.wedges++
				}
				g.slots++
			}
			if wedge != 0 {
				g.list = 1
			}
			if carry {
				carries |= 1 << (key + 4)
			}
		}
		return t, carries
	}()
)

// normFillAsm runs run.groups groups of the register from run.tap and
// run.feed. It writes up to 4 × run.groups slots from dst and lists up to
// run.groups groups in recs, and trusts run.groups to fit all three.
//
//go:noescape
func normFillAsm(vec *[rngLen]int64, dst *float64, recs *normRec, run *normRun)

// normFillKernel fills a prefix of dst on the kernel, as NormFill would,
// and returns its length.
func (r *RNG) normFillKernel(dst []float64) int {
	var sc normScratch
	pos := 0
	for len(dst)-pos >= normKernelRun {
		tap, feed := r.tap, r.feed
		if tap == 0 {
			tap = rngLen
		}
		if feed == 0 {
			feed = rngLen
		}
		if min(tap, feed) < 4 {
			// The next four words straddle the end of the ring.
			r.normFill(dst[pos : pos+1])
			pos++
			continue
		}
		run := normRun{tap: tap, feed: feed, groups: min(tap, feed, len(dst)-pos) / 4}
		normFillAsm(&r.vec, &dst[pos], &sc.recs[0], &run)
		if done := run.groups - run.left/4; done > 0 {
			r.tap, r.feed = tap-4*done, feed-4*done
		}
		kept, stop := r.settle(dst[pos:pos+run.slots], &sc, &run, feed-4*run.groups)
		pos += kept
		if run.left != 0 || stop {
			// The next group holds a tail, or a wedge's uniform rounds to 1.
			k := min(4, len(dst)-pos)
			r.normFill(dst[pos : pos+k])
			pos += k
		}
	}
	return pos
}

// settle runs the wedge tests of the groups a kernel run listed, whose
// words sit in the register below index base plus their left count, and
// closes up the slots of dst whose wedge rejects. It returns the number
// of slots kept. When the run carries a wedge out of its last group, that
// wedge's uniform is the stream's next word.
//
// A uniform that rounds to 1 is drawn again, which the kernel does not
// do: settle then ends the run before that wedge's first draw, steps the
// register back to it and reports stop, and the Go loop draws on from
// there. A uniform rounds to 1 with probability 2^-54.
//
// The tests run in a loop of their own, before any slot moves, so their
// math.Exp calls are independent of one another and of the results.
func (r *RNG) settle(dst []float64, sc *normScratch, run *normRun, base int) (kept int, stop bool) {
	if run.listed == 0 {
		return len(dst), false
	}
	wedges := sc.wedges[:]
	n, ones := 0, 0
	for _, rc := range sc.recs[:run.listed] {
		g := &normGroups[rc.tag&31]
		feed := base + 4*int(rc.tag>>5)
		for k := 0; k < 2; k++ {
			// A group's second entry is written even when it has one
			// wedge, and then overwritten or left past n.
			w := &wedges[n+k]
			w.slot = int32(rc.slot) + int32(g.slot[k])
			w.word = int32(feed - 1 - int(g.draw[k]))
			uw := w.word - 1
			if uw < 0 {
				uw = rngLen - 1
			}
			w.u = float64(r.vec[uw]&rngMask) / (1 << 63)
			ones |= b2i(w.u == 1)
		}
		n += int(g.wedges)
	}
	pending := run.carry != 0
	if ones != 0 {
		last := n
		if pending {
			last--
		}
		for k, w := range wedges[:last] {
			if w.u == 1 {
				r.unstepTo(int(w.word) + 1)
				dst, n, pending, stop = dst[:w.slot], k, false, true
				break
			}
		}
	}
	if pending {
		wedges[n-1].u = r.Float64()
	}
	// The wedges that reject move to the front of the list, in order.
	nr := 0
	for _, w := range wedges[:n] {
		j := int32(uint64(r.vec[w.word]) >> 31)
		wedges[nr].slot = w.slot
		nr += b2i(!inWedge(j&0x7F, dst[w.slot], w.u))
	}
	if nr == 0 {
		return len(dst), stop
	}
	// Each rejected slot closes up: the slots up to the next rejected one
	// move down over it.
	out := int(wedges[0].slot)
	for k := 1; k < nr; k++ {
		out += copy(dst[out:], dst[wedges[k-1].slot+1:wedges[k].slot])
	}
	return out + copy(dst[out:], dst[wedges[nr-1].slot+1:]), stop
}

// unstepTo undoes the register's last steps until its feed index is
// feed mod rngLen, so that the next word drawn is the one drawn from
// there before.
func (r *RNG) unstepTo(feed int) {
	feed %= rngLen
	for r.feed != feed {
		r.vec[r.feed] -= r.vec[r.tap]
		r.tap, r.feed = (r.tap+1)%rngLen, (r.feed+1)%rngLen
	}
}

// b2i is 1 for true and 0 for false; the compiler makes it a SETcc, so
// a result no branch predictor can guess costs no misprediction.
func b2i(b bool) int {
	var i int
	if b {
		i = 1
	}
	return i
}
