// Package vrf provides the simulated verifiable random function used by
// cryptographic sortition. Algorand uses the VRF of Micali, Rabin and
// Vadhan (FOCS '99); this reproduction substitutes an HMAC-SHA256
// pseudo-VRF whose outputs are uniform and deterministic per
// (key, message) pair, which is the only property sortition's selection
// statistics depend on.
//
// Substitution note: the "public key" of a simulated
// keypair carries enough material for verification by recomputation. This
// would be insecure in a real deployment but is behaviourally equivalent
// inside a trusted simulator: proofs are unforgeable within the simulation
// because only the engine holds the keys, and Verify rejects any tampered
// proof or message.
package vrf

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"math/rand"
)

// hmacBlock is SHA-256's block size; HMAC pads the 32-byte key material
// with zeros up to this length.
const hmacBlock = 64

// hmacStackMsg is the longest message hashed without heap allocation.
// Sortition messages are 49 bytes, so the protocol hot path always stays
// on the stack; longer messages fall back to one temporary buffer.
const hmacStackMsg = 192

// hmacSHA256 computes HMAC-SHA256(key, msg) by the definition
// H(K⊕opad ‖ H(K⊕ipad ‖ msg)), using sha256.Sum256 over stack buffers so
// that the protocol hot path (VRF evaluate + verify per message) performs
// zero heap allocations. The result is bit-identical to crypto/hmac; a
// reference test pins the equivalence.
func hmacSHA256(key *[32]byte, msg []byte) [sha256.Size]byte {
	var inner [hmacBlock + hmacStackMsg]byte
	buf := inner[:]
	if len(msg) > hmacStackMsg {
		buf = make([]byte, hmacBlock+len(msg))
	}
	for i := 0; i < len(key); i++ {
		buf[i] = key[i] ^ 0x36
	}
	for i := len(key); i < hmacBlock; i++ {
		buf[i] = 0x36
	}
	copy(buf[hmacBlock:], msg)
	innerSum := sha256.Sum256(buf[:hmacBlock+len(msg)])

	var outer [hmacBlock + sha256.Size]byte
	for i := 0; i < len(key); i++ {
		outer[i] = key[i] ^ 0x5c
	}
	for i := len(key); i < hmacBlock; i++ {
		outer[i] = 0x5c
	}
	copy(outer[hmacBlock:], innerSum[:])
	return sha256.Sum256(outer[:])
}

// OutputLen is the byte length of a VRF output.
const OutputLen = sha256.Size

// Output is the pseudo-random value produced by evaluating the VRF.
type Output [OutputLen]byte

// Proof attests that an Output was produced by a given key on a message.
type Proof [OutputLen]byte

// PrivateKey evaluates the VRF. In this simulation it is 32 bytes of
// seed material.
type PrivateKey struct {
	material [32]byte
}

// PublicKey verifies VRF proofs produced by the matching PrivateKey.
type PublicKey struct {
	material [32]byte
}

// KeyPair bundles the two halves of a sortition identity.
type KeyPair struct {
	Private PrivateKey
	Public  PublicKey
}

// GenerateKey derives a keypair from the given random stream.
func GenerateKey(rng *rand.Rand) KeyPair {
	var m [32]byte
	for i := 0; i < len(m); i += 8 {
		binary.LittleEndian.PutUint64(m[i:], rng.Uint64())
	}
	return KeyPair{Private: PrivateKey{material: m}, Public: PublicKey{material: m}}
}

// Evaluate computes the VRF output and proof for msg under the private key.
// Output = SHA256(proof) so that the proof determines the output, exactly
// as in the Micali-Rabin-Vadhan construction.
func (k PrivateKey) Evaluate(msg []byte) (Output, Proof) {
	proof := Proof(hmacSHA256(&k.material, msg))
	return outputFromProof(proof), proof
}

// Verify reports whether proof is a valid VRF proof for msg under the
// public key, and whether out matches it.
func (k PublicKey) Verify(msg []byte, out Output, proof Proof) bool {
	expect := hmacSHA256(&k.material, msg)
	if !hmac.Equal(expect[:], proof[:]) {
		return false
	}
	return outputFromProof(proof) == out
}

func outputFromProof(p Proof) Output {
	return Output(sha256.Sum256(p[:]))
}

// Uniform maps the output to a float64 uniform in [0, 1). Sortition
// compares it against the binomial CDF of selected sub-users.
func (o Output) Uniform() float64 {
	u := binary.BigEndian.Uint64(o[:8])
	return float64(u>>11) / float64(uint64(1)<<53)
}

// Uint64 returns the leading 8 bytes of the output as an integer; used to
// derive sub-user priorities.
func (o Output) Uint64() uint64 {
	return binary.BigEndian.Uint64(o[:8])
}
