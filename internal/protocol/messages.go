package protocol

import (
	"crypto/sha256"
	"encoding/binary"

	"github.com/dsn2020-algorand/incentives/internal/ledger"
	"github.com/dsn2020-algorand/incentives/internal/sortition"
)

// verifyMemo caches a credential's verification verdict on the gossiped
// payload itself. Verification is a pure function of the payload and the
// round state shared by all synced nodes, so the first receiver's verdict
// is valid for every later receiver; the memo collapses fanout×N
// re-verifications of one credential into one. Each node's VerifyProof
// cost counter still ticks per delivery — the memo models shared
// computation inside the simulator, not a protocol change.
type verifyMemo uint8

const (
	memoUnknown verifyMemo = iota
	memoValid
	memoInvalid
)

// proposalPayload is the gossiped block proposal: the block itself plus
// the sortition credential proving the sender's proposer role.
type proposalPayload struct {
	Block      ledger.Block
	BlockHash  ledger.Hash
	Credential sortition.Result
	Proposer   int
	verdict    verifyMemo
	// slot is the payload's index in the round's proposal table once a
	// node has accepted it (see Runner.accept); it may be stale.
	slot int32
}

func proposalID(round uint64, proposer int) [32]byte {
	var buf [17]byte
	buf[0] = byte('P')
	binary.BigEndian.PutUint64(buf[1:], round)
	binary.BigEndian.PutUint64(buf[9:], uint64(int64(proposer)))
	return sha256.Sum256(buf[:])
}

// proposalVariantID identifies the variant'th equivocating proposal from
// one proposer. Variant 0 is the historical proposalID byte-for-byte, so
// hook-free runs keep their exact gossip identifiers.
func proposalVariantID(round uint64, proposer, variant int) [32]byte {
	if variant == 0 {
		return proposalID(round, proposer)
	}
	var buf [25]byte
	buf[0] = byte('Q') // distinct domain from the primary proposal
	binary.BigEndian.PutUint64(buf[1:], round)
	binary.BigEndian.PutUint64(buf[9:], uint64(int64(proposer)))
	binary.BigEndian.PutUint64(buf[17:], uint64(int64(variant)))
	return sha256.Sum256(buf[:])
}

// votePayload is a signed committee vote for a block hash at a given
// (round, step), carrying the sortition proof of committee membership.
type votePayload struct {
	Round      uint64
	Step       uint64
	Final      bool
	Value      ledger.Hash
	Voter      int
	Credential sortition.Result
	verdict    verifyMemo
	// equivocal marks one of several conflicting votes its voter cast in
	// this step (see stepTally).
	equivocal bool
}

func voteID(round, step uint64, final bool, voter int) [32]byte {
	var buf [26]byte
	buf[0] = byte('V')
	if final {
		buf[1] = 1
	}
	binary.BigEndian.PutUint64(buf[2:], round)
	binary.BigEndian.PutUint64(buf[10:], step)
	binary.BigEndian.PutUint64(buf[18:], uint64(int64(voter)))
	return sha256.Sum256(buf[:])
}

// voteVariantID identifies the variant'th equivocating vote from one
// voter at a (round, step). Variant 0 is the historical voteID
// byte-for-byte.
func voteVariantID(round, step uint64, final bool, voter, variant int) [32]byte {
	if variant == 0 {
		return voteID(round, step, final, voter)
	}
	var buf [34]byte
	buf[0] = byte('W') // distinct domain from the primary vote
	if final {
		buf[1] = 1
	}
	binary.BigEndian.PutUint64(buf[2:], round)
	binary.BigEndian.PutUint64(buf[10:], step)
	binary.BigEndian.PutUint64(buf[18:], uint64(int64(voter)))
	binary.BigEndian.PutUint64(buf[26:], uint64(int64(variant)))
	return sha256.Sum256(buf[:])
}
