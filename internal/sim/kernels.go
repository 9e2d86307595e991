// Word-level four-state kernels for the register-file engine. Every kernel
// operates directly on (val, xz) uint64 plane slices inside an Engine frame:
// operands are read with guarded loads (bits beyond a slice read as known 0,
// which is exactly zero-extension), results are written in place into a
// destination slice, and no kernel allocates.
//
// Shared invariant: a slot holding a value produced at width w has every bit
// at or above w cleared in both planes, so a consumer that needs the value at
// any width w' >= w can simply read w' bits — the implicit Resize of the
// interpreter's Values costs nothing here. Each kernel re-establishes the invariant
// for its destination via kfinish.
//
// Kernels mirror the Value operations in logic.go construct by construct
// (including quirks like Shl treating a >64-bit known shift amount as X, and
// divmodBits masking the remainder at width w); the differential tests in
// random_expr_test.go and kernel_width_test.go hold the two implementations
// together.
package sim

import "math/bits"

// ldw is the guarded word load: reads past the slice are known 0.
func ldw(s []uint64, i int) uint64 {
	if i >= 0 && i < len(s) {
		return s[i]
	}
	return 0
}

// maskN returns a mask of the low n bits (n in [0,64]).
func maskN(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return uint64(1)<<uint(n) - 1
}

// kfinish clears every bit at or above width w in dst slices of nw words.
func kfinish(dv, dx []uint64, w, nw int) {
	last := (w - 1) / 64
	if w <= 0 {
		last = -1
	} else if rem := w % 64; rem != 0 {
		m := maskN(rem)
		dv[last] &= m
		dx[last] &= m
	}
	for i := last + 1; i < nw; i++ {
		dv[i], dx[i] = 0, 0
	}
}

// kzero clears nw words of dst.
func kzero(dv, dx []uint64, nw int) {
	for i := 0; i < nw; i++ {
		dv[i], dx[i] = 0, 0
	}
}

// ksetX fills dst with w X bits (NewX semantics).
func ksetX(dv, dx []uint64, w, nw int) {
	wn := words(w)
	for i := 0; i < wn; i++ {
		dv[i] = 0
		dx[i] = ^uint64(0)
	}
	for i := wn; i < nw; i++ {
		dv[i], dx[i] = 0, 0
	}
	kfinish(dv, dx, w, nw)
}

// kanyNZ reports whether any word of s is nonzero.
func kanyNZ(s []uint64) bool {
	for _, w := range s {
		if w != 0 {
			return true
		}
	}
	return false
}

// kfits64 reports whether the value in (sv, sx) is fully known and fits in
// one word, mirroring Value.Uint64.
func kfits64(sv, sx []uint64) (uint64, bool) {
	if kanyNZ(sx) {
		return 0, false
	}
	for i := 1; i < len(sv); i++ {
		if sv[i] != 0 {
			return 0, false
		}
	}
	return ldw(sv, 0), true
}

// kbool3 is Value.Bool3 on a slot: (truth, known).
func kbool3(sv, sx []uint64) (bool, bool) {
	anyOne, anyXZ := false, false
	n := len(sv)
	if len(sx) > n {
		n = len(sx)
	}
	for i := 0; i < n; i++ {
		if ldw(sv, i)&^ldw(sx, i) != 0 {
			anyOne = true
		}
		if ldw(sx, i) != 0 {
			anyXZ = true
		}
	}
	if anyOne {
		return true, true
	}
	if anyXZ {
		return false, false
	}
	return false, true
}

// kcmp compares two fully known slots as unsigned integers (-1, 0, +1),
// mirroring cmpKnown.
func kcmp(av, bv []uint64) int {
	n := len(av)
	if len(bv) > n {
		n = len(bv)
	}
	for i := n - 1; i >= 0; i-- {
		a, b := ldw(av, i), ldw(bv, i)
		if a != b {
			if a < b {
				return -1
			}
			return 1
		}
	}
	return 0
}

// kcaseEqual reports exact four-state equality of two slots (both hold the
// zero-is-known-0 invariant, so comparing the longer word count suffices).
func kcaseEqual(av, ax, bv, bx []uint64) bool {
	n := len(av)
	if len(bv) > n {
		n = len(bv)
	}
	for i := 0; i < n; i++ {
		if ldw(av, i) != ldw(bv, i) || ldw(ax, i) != ldw(bx, i) {
			return false
		}
	}
	return true
}

// kcasezMatch is CasezMatch on slots: Z bits (and X bits when alsoX) of
// either side are wildcards. Bits above both produced widths are known 0 on
// both sides and never mismatch, so no explicit width bound is needed.
func kcasezMatch(sv, sx, lv, lx []uint64, alsoX bool) bool {
	n := len(sv)
	if len(lv) > n {
		n = len(lv)
	}
	for i := 0; i < n; i++ {
		svw, sxw := ldw(sv, i), ldw(sx, i)
		lvw, lxw := ldw(lv, i), ldw(lx, i)
		wild := (svw & sxw) | (lvw & lxw) // z bits
		if alsoX {
			wild |= (^svw & sxw) | (^lvw & lxw) // x bits
		}
		diff := (svw ^ lvw) | (sxw ^ lxw)
		if diff&^wild != 0 {
			return false
		}
	}
	return true
}

// kbit returns the 4-state code (0:'0' 1:'1' 2:'x' 3:'z') of bit i, with
// out-of-range bits reading as known 0 within [0,w).
func kbit(sv, sx []uint64, w, i int) uint8 {
	if i < 0 || i >= w {
		return 0
	}
	wi, b := i/64, uint(i)%64
	return uint8(ldw(sv, wi)>>b&1) | uint8(ldw(sx, wi)>>b&1)<<1
}

// kread64 assembles 64 bits of s starting at bit position pos (guarded).
func kread64(s []uint64, pos int) uint64 {
	wi, b := pos/64, uint(pos)%64
	if b == 0 {
		return ldw(s, wi)
	}
	return ldw(s, wi)>>b | ldw(s, wi+1)<<(64-b)
}

// kblit copies n bits from (sv, sx) starting at bit spos into (dv, dx)
// starting at bit dpos. Source reads are guarded (zero-extension); the
// destination must be large enough.
func kblit(dv, dx []uint64, dpos int, sv, sx []uint64, spos, n int) {
	for n > 0 {
		wi, b := dpos/64, dpos%64
		take := 64 - b
		if take > n {
			take = n
		}
		m := maskN(take) << uint(b)
		dv[wi] = dv[wi]&^m | kread64(sv, spos)<<uint(b)&m
		dx[wi] = dx[wi]&^m | kread64(sx, spos)<<uint(b)&m
		dpos += take
		spos += take
		n -= take
	}
}

// kcopy copies a value produced at width w from src slices into dst of nw
// words, zeroing above (used by ternary/unary-plus passthrough).
func kcopy(dv, dx, sv, sx []uint64, w, nw int) {
	wn := words(w)
	for i := 0; i < wn; i++ {
		dv[i] = ldw(sv, i)
		dx[i] = ldw(sx, i)
	}
	for i := wn; i < nw; i++ {
		dv[i], dx[i] = 0, 0
	}
	kfinish(dv, dx, w, nw)
}

// --- Bitwise ----------------------------------------------------------------

func kand(dv, dx, av, ax, bv, bx []uint64, w, nw int) {
	wn := words(w)
	for i := 0; i < wn; i++ {
		avw, axw := ldw(av, i), ldw(ax, i)
		bvw, bxw := ldw(bv, i), ldw(bx, i)
		a0 := ^avw & ^axw
		a1 := avw & ^axw
		b0 := ^bvw & ^bxw
		b1 := bvw & ^bxw
		one := a1 & b1
		zero := a0 | b0
		dv[i] = one
		dx[i] = ^(one | zero)
	}
	for i := wn; i < nw; i++ {
		dv[i], dx[i] = 0, 0
	}
	kfinish(dv, dx, w, nw)
}

func kor(dv, dx, av, ax, bv, bx []uint64, w, nw int) {
	wn := words(w)
	for i := 0; i < wn; i++ {
		avw, axw := ldw(av, i), ldw(ax, i)
		bvw, bxw := ldw(bv, i), ldw(bx, i)
		a0 := ^avw & ^axw
		a1 := avw & ^axw
		b0 := ^bvw & ^bxw
		b1 := bvw & ^bxw
		one := a1 | b1
		zero := a0 & b0
		dv[i] = one
		dx[i] = ^(one | zero)
	}
	for i := wn; i < nw; i++ {
		dv[i], dx[i] = 0, 0
	}
	kfinish(dv, dx, w, nw)
}

// kxor computes XOR; when invert is set it computes XNOR (Not(Xor)) in one
// pass, matching Xnor = Not(Xor) bit for bit.
func kxor(dv, dx, av, ax, bv, bx []uint64, w, nw int, invert bool) {
	wn := words(w)
	for i := 0; i < wn; i++ {
		unk := ldw(ax, i) | ldw(bx, i)
		v := (ldw(av, i) ^ ldw(bv, i)) &^ unk
		if invert {
			v = ^v &^ unk
		}
		dv[i] = v
		dx[i] = unk
	}
	for i := wn; i < nw; i++ {
		dv[i], dx[i] = 0, 0
	}
	kfinish(dv, dx, w, nw)
}

func knot(dv, dx, av, ax []uint64, w, nw int) {
	wn := words(w)
	for i := 0; i < wn; i++ {
		axw := ldw(ax, i)
		dv[i] = ^ldw(av, i) &^ axw
		dx[i] = axw
	}
	for i := wn; i < nw; i++ {
		dv[i], dx[i] = 0, 0
	}
	kfinish(dv, dx, w, nw)
}

// --- Arithmetic --------------------------------------------------------------

// kadd computes a+b (or a-b when sub is set) at width w; all-X when any
// operand bit is X/Z, mirroring Add/Sub.
func kadd(dv, dx, av, ax, bv, bx []uint64, w, nw int, sub bool) {
	if kanyNZ(ax) || kanyNZ(bx) {
		ksetX(dv, dx, w, nw)
		return
	}
	wn := words(w)
	var carry uint64
	if sub {
		for i := 0; i < wn; i++ {
			dv[i], carry = bits.Sub64(ldw(av, i), ldw(bv, i), carry)
		}
	} else {
		for i := 0; i < wn; i++ {
			dv[i], carry = bits.Add64(ldw(av, i), ldw(bv, i), carry)
		}
	}
	for i := 0; i < nw; i++ {
		if i >= wn {
			dv[i] = 0
		}
		dx[i] = 0
	}
	kfinish(dv, dx, w, nw)
}

// kneg computes two's-complement negation (Neg = Sub(0, a)).
func kneg(dv, dx, av, ax []uint64, w, nw int) {
	var zero [1]uint64
	kadd(dv, dx, zero[:0], zero[:0], av, ax, w, nw, true)
}

// kmul computes a*b truncated at width w; all-X on X/Z input.
func kmul(dv, dx, av, ax, bv, bx []uint64, w, nw int) {
	if kanyNZ(ax) || kanyNZ(bx) {
		ksetX(dv, dx, w, nw)
		return
	}
	wn := words(w)
	for i := 0; i < nw; i++ {
		dv[i], dx[i] = 0, 0
	}
	for i := 0; i < len(av) && i < wn; i++ {
		if av[i] == 0 {
			continue
		}
		var carry uint64
		for j := 0; i+j < wn && j < len(bv); j++ {
			hi, lo := bits.Mul64(av[i], bv[j])
			var c1, c2 uint64
			lo, c1 = bits.Add64(lo, dv[i+j], 0)
			lo, c2 = bits.Add64(lo, carry, 0)
			dv[i+j] = lo
			carry = hi + c1 + c2
		}
		for k := i + len(bv); carry != 0 && k < wn; k++ {
			dv[k], carry = bits.Add64(dv[k], carry, 0)
		}
	}
	kfinish(dv, dx, w, nw)
}

// kshl1 shifts the low words(w) words of d left by one bit, masking at w
// (mirroring the Shl-by-1 inside divmodBits).
func kshl1(d []uint64, w int) {
	wn := words(w)
	var carry uint64
	for i := 0; i < wn; i++ {
		nc := d[i] >> 63
		d[i] = d[i]<<1 | carry
		carry = nc
	}
	if rem := w % 64; rem != 0 {
		d[wn-1] &= maskN(rem)
	}
}

// ksub64in subtracts b (guarded) from d in place over wn words.
func ksub64in(d, b []uint64, wn int) {
	var borrow uint64
	for i := 0; i < wn; i++ {
		d[i], borrow = bits.Sub64(d[i], ldw(b, i), borrow)
	}
}

// kdivmod computes a/b and a%b at width w via bit-serial restoring division,
// writing the quotient into (qv) and remainder into (rv); it mirrors
// divmodBits exactly, including the remainder being shifted under a width-w
// mask. Operands must be fully known and b nonzero; the caller handles the
// X and divide-by-zero cases. qv and rv must each have words(w) words and
// are used as working storage.
func kdivmod(qv, rv, av, bv []uint64, w int) {
	wn := words(w)
	for i := 0; i < wn; i++ {
		qv[i], rv[i] = 0, 0
	}
	// Single-word fast path, mirroring Div/Mod's Uint64 shortcut.
	if a0, ok := kfits64(av, nil); ok {
		if b0, ok2 := kfits64(bv, nil); ok2 {
			qv[0] = a0 / b0
			rv[0] = a0 % b0
			if rem := w % 64; rem != 0 && wn == 1 {
				qv[0] &= maskN(rem)
				rv[0] &= maskN(rem)
			}
			return
		}
	}
	for i := w - 1; i >= 0; i-- {
		kshl1(rv, w)
		if ldw(av, i/64)>>(uint(i)%64)&1 != 0 {
			rv[0] |= 1
		}
		if kcmp(rv, bv) >= 0 {
			ksub64in(rv, bv, wn)
			qv[i/64] |= 1 << (uint(i) % 64)
		}
	}
}

// --- Shifts ------------------------------------------------------------------

// kshiftConst shifts a (produced at width w after context extension) by a
// known amount within [0, w), writing the result at width w. arith selects
// sign-filled right shifts; right selects direction.
func kshift(dv, dx, av, ax []uint64, w, nw, amt int, right, arith bool) {
	wn := words(w)
	var fillV, fillX uint64
	if right && arith {
		switch kbit(av, ax, w, w-1) {
		case 1:
			fillV, fillX = ^uint64(0), 0
		case 2:
			fillV, fillX = 0, ^uint64(0)
		case 3:
			fillV, fillX = ^uint64(0), ^uint64(0)
		}
	}
	ws, bs := amt/64, uint(amt)%64
	if right {
		for i := 0; i < wn; i++ {
			var v, x uint64
			if bs == 0 {
				v, x = ldwFill(av, i+ws, wn, w, fillV), ldwFill(ax, i+ws, wn, w, fillX)
			} else {
				v = ldwFill(av, i+ws, wn, w, fillV)>>bs | ldwFill(av, i+ws+1, wn, w, fillV)<<(64-bs)
				x = ldwFill(ax, i+ws, wn, w, fillX)>>bs | ldwFill(ax, i+ws+1, wn, w, fillX)<<(64-bs)
			}
			dv[i], dx[i] = v, x
		}
	} else {
		for i := wn - 1; i >= 0; i-- {
			var v, x uint64
			if bs == 0 {
				v, x = ldw(av, i-ws), ldw(ax, i-ws)
			} else {
				v = ldw(av, i-ws)<<bs | ldw(av, i-ws-1)>>(64-bs)
				x = ldw(ax, i-ws)<<bs | ldw(ax, i-ws-1)>>(64-bs)
			}
			dv[i], dx[i] = v, x
		}
	}
	for i := wn; i < nw; i++ {
		dv[i], dx[i] = 0, 0
	}
	kfinish(dv, dx, w, nw)
}

// ldwFill loads word i of a width-w value whose bits at and above w are the
// fill pattern (used by arithmetic right shifts). The value's own slice
// covers words < wn; beyond that (and for the defined-but-masked top bits of
// the last word) the fill applies.
func ldwFill(s []uint64, i, wn, w int, fill uint64) uint64 {
	if i < 0 {
		return 0
	}
	if i < wn-1 {
		return ldw(s, i)
	}
	if i == wn-1 {
		v := ldw(s, i)
		if rem := w % 64; rem != 0 {
			v |= fill &^ maskN(rem)
		}
		return v
	}
	return fill
}

// --- Reductions --------------------------------------------------------------

// kredAnd mirrors RedAnd over w bits of the operand.
func kredAnd(sv, sx []uint64, w int) (any0, anyXZ bool) {
	if w <= 0 {
		return false, false
	}
	wn := words(w)
	for i := 0; i < wn; i++ {
		m := ^uint64(0)
		if i == wn-1 {
			if rem := w % 64; rem != 0 {
				m = maskN(rem)
			}
		}
		if ^ldw(sv, i)&^ldw(sx, i)&m != 0 {
			any0 = true
		}
		if ldw(sx, i)&m != 0 {
			anyXZ = true
		}
	}
	return any0, anyXZ
}

// kredOr mirrors RedOr; the slot invariant makes masking unnecessary.
func kredOr(sv, sx []uint64) (any1, anyXZ bool) {
	n := len(sv)
	if len(sx) > n {
		n = len(sx)
	}
	for i := 0; i < n; i++ {
		if ldw(sv, i)&^ldw(sx, i) != 0 {
			any1 = true
		}
		if ldw(sx, i) != 0 {
			anyXZ = true
		}
	}
	return any1, anyXZ
}

// kredXor mirrors RedXor: (parity, anyXZ).
func kredXor(sv, sx []uint64) (parity uint64, anyXZ bool) {
	for i := 0; i < len(sx); i++ {
		if sx[i] != 0 {
			return 0, true
		}
	}
	for i := 0; i < len(sv); i++ {
		parity ^= uint64(bits.OnesCount64(sv[i]) & 1)
	}
	return parity, false
}

// kset1 writes a 1-bit result code (0:'0' 1:'1' 2:'x') into dst.
func kset1(dv, dx []uint64, nw int, code uint8) {
	dv[0] = uint64(code & 1)
	dx[0] = uint64(code >> 1)
	for i := 1; i < nw; i++ {
		dv[i], dx[i] = 0, 0
	}
}

// kslice extracts width bits of src (produced at srcW) starting at bit lo
// into dst, with out-of-range source bits reading X (SliceBits semantics).
func kslice(dv, dx []uint64, w, nw int, sv, sx []uint64, srcW, lo int) {
	ksetX(dv, dx, w, nw)
	// Overlap of [lo, lo+w) with [0, srcW), translated to dst positions.
	from := lo
	if from < 0 {
		from = 0
	}
	to := lo + w
	if to > srcW {
		to = srcW
	}
	if to <= from {
		return
	}
	kblit(dv, dx, from-lo, sv, sx, from, to-from)
}

// kmergeTernary merges two branch values under an unknown condition at width
// w: agreeing known bits survive, everything else becomes X (mergeTernary).
func kmergeTernary(dv, dx, av, ax, bv, bx []uint64, w, nw int) {
	wn := words(w)
	for i := 0; i < wn; i++ {
		avw, bvw := ldw(av, i), ldw(bv, i)
		agree := ^(ldw(ax, i) | ldw(bx, i)) &^ (avw ^ bvw)
		dv[i] = avw & agree
		dx[i] = ^agree
	}
	for i := wn; i < nw; i++ {
		dv[i], dx[i] = 0, 0
	}
	kfinish(dv, dx, w, nw)
}
