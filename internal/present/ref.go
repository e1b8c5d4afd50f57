// Package present implements PRESENT-80 (Bogdanov et al., CHES 2007) as
// a registered cipher target: a bit-exact Go reference, a code-generated
// byte-oriented implementation for the simulated pipeline, and the
// first-round HW(S(p^k)) ClassCPA leakage model. The 4-bit S-box is
// applied through a byte-doubled 256-entry table — the natural software
// spelling on a 32-bit core and the same load/store leak shape as the
// AES target — and the 64-bit pLayer is spelled as register bit
// gather/scatter, a leak source AES does not have.
package present

import (
	"encoding/binary"
	"fmt"
)

// BlockSize is the cipher block length in bytes (64-bit blocks).
const BlockSize = 8

// KeySize is the PRESENT-80 key length in bytes.
const KeySize = 10

// Rounds is the full cipher's round count.
const Rounds = 31

// Sbox4 is the 4-bit PRESENT S-box.
var Sbox4 = [16]byte{
	0xC, 0x5, 0x6, 0xB, 0x9, 0x0, 0xA, 0xD,
	0x3, 0xE, 0xF, 0x8, 0x4, 0x7, 0x1, 0x2,
}

// SboxByte applies the 4-bit S-box to both nibbles of x — the
// byte-doubled table the generated program looks up.
func SboxByte(x byte) byte {
	return Sbox4[x>>4]<<4 | Sbox4[x&0xF]
}

// pBit maps input bit position i (0 = LSB of the 64-bit state) to its
// output position under the pLayer: P(i) = 16i mod 63, P(63) = 63.
func pBit(i int) int {
	if i == 63 {
		return 63
	}
	return 16 * i % 63
}

// PLayer applies the bit permutation to the 64-bit state.
func PLayer(s uint64) uint64 {
	var out uint64
	for i := 0; i < 64; i++ {
		out |= (s >> uint(i) & 1) << uint(pBit(i))
	}
	return out
}

// SLayer applies the S-box to all sixteen nibbles.
func SLayer(s uint64) uint64 {
	var out uint64
	for i := 0; i < 64; i += 8 {
		out |= uint64(SboxByte(byte(s>>uint(i)))) << uint(i)
	}
	return out
}

// ExpandKey derives the 32 64-bit round keys from the 80-bit key
// (key[0] holds k79..k72). The register update is the spec's: rotate
// left 61, S-box on k79..k76, round counter XORed into k19..k15.
func ExpandKey(key [KeySize]byte) [Rounds + 1]uint64 {
	var bits [80]int // bits[j] = k_j
	for i, b := range key {
		for j := 0; j < 8; j++ {
			bits[79-(8*i+j)] = int(b >> uint(7-j) & 1)
		}
	}
	top64 := func() uint64 {
		var v uint64
		for j := 0; j < 64; j++ {
			v |= uint64(bits[16+j]) << uint(j)
		}
		return v
	}
	var rk [Rounds + 1]uint64
	rk[0] = top64()
	for i := 1; i <= Rounds; i++ {
		var next [80]int
		for j := 0; j < 80; j++ {
			next[j] = bits[(j+19)%80]
		}
		bits = next
		nib := byte(bits[79]<<3 | bits[78]<<2 | bits[77]<<1 | bits[76])
		s := Sbox4[nib]
		bits[79], bits[78], bits[77], bits[76] = int(s>>3&1), int(s>>2&1), int(s>>1&1), int(s&1)
		for j := 0; j < 5; j++ {
			bits[19-j] ^= i >> uint(4-j) & 1
		}
		rk[i] = top64()
	}
	return rk
}

// Ref is the bit-exact reference implementation — the functional oracle
// of every synthesized acquisition on this target.
type Ref struct {
	rk [Rounds + 1]uint64
}

// NewRef expands key and returns the reference cipher.
func NewRef(key [KeySize]byte) *Ref {
	return &Ref{rk: ExpandKey(key)}
}

// RoundKeys returns the expanded round keys.
func (r *Ref) RoundKeys() [Rounds + 1]uint64 { return r.rk }

// Encrypt runs the full 31-round cipher plus the final key whitening.
func (r *Ref) Encrypt(pt [BlockSize]byte) [BlockSize]byte {
	out, _ := r.EncryptPartial(pt, Rounds)
	return out
}

// EncryptPartial runs n rounds of addRoundKey+sBoxLayer+pLayer
// (1 <= n <= 31); the full n = 31 adds the final whitening key — the
// truncated target used to keep first-round attacks fast.
func (r *Ref) EncryptPartial(pt [BlockSize]byte, n int) ([BlockSize]byte, error) {
	if n < 1 || n > Rounds {
		return [BlockSize]byte{}, fmt.Errorf("present: rounds must be in [1,%d], got %d", Rounds, n)
	}
	s := binary.BigEndian.Uint64(pt[:])
	for i := 1; i <= n; i++ {
		s ^= r.rk[i-1]
		s = SLayer(s)
		s = PLayer(s)
	}
	if n == Rounds {
		s ^= r.rk[Rounds]
	}
	var out [BlockSize]byte
	binary.BigEndian.PutUint64(out[:], s)
	return out, nil
}
