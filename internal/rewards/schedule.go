// Package rewards implements Algorand's reward machinery: the Foundation
// reward pool with its 1.75-billion-Algo ceiling, the transaction-fee
// pool, the 12-period reward schedule of Table III, and the per-round
// disbursement of a reward over a simulated round's roles under either
// of the splits the paper compares (game.FoundationRule and
// game.RoleBasedRule).
package rewards

import (
	"errors"
	"fmt"
)

// BlocksPerPeriod is the length of one reward period (500k blocks).
const BlocksPerPeriod = 500_000

// FoundationCeiling is the total reward budget of the Foundation pool,
// 1.75 billion Algos.
const FoundationCeiling = 1.75e9

// projectedMillions is Table III: the projected reward for the first 12
// reward periods, in millions of Algos.
var projectedMillions = [12]float64{10, 13, 16, 19, 22, 25, 28, 31, 34, 36, 38, 38}

// Schedule exposes the Table III reward plan.
type Schedule struct{}

// Periods returns the number of scheduled reward periods (12).
func (Schedule) Periods() int { return len(projectedMillions) }

// PeriodReward returns the total reward of period p (1-based), in Algos.
// Periods beyond the published 12 repeat the final value, matching the
// flat tail of the Foundation plan.
func (Schedule) PeriodReward(p int) (float64, error) {
	if p < 1 {
		return 0, fmt.Errorf("rewards: invalid period %d", p)
	}
	if p > len(projectedMillions) {
		p = len(projectedMillions)
	}
	return projectedMillions[p-1] * 1e6, nil
}

// PeriodOfRound maps a round (1-based) to its reward period (1-based).
func (Schedule) PeriodOfRound(round uint64) int {
	if round == 0 {
		return 1
	}
	return int((round-1)/BlocksPerPeriod) + 1
}

// RoundReward returns R_i, the per-round reward for the given round:
// the period total divided by the 500k blocks of the period. Period 1
// yields 10M/500k = 20 Algos per round, as quoted in the paper.
func (s Schedule) RoundReward(round uint64) (float64, error) {
	if round == 0 {
		return 0, errors.New("rewards: rounds are 1-based")
	}
	total, err := s.PeriodReward(s.PeriodOfRound(round))
	if err != nil {
		return 0, err
	}
	return total / BlocksPerPeriod, nil
}

// Pool is a reward reservoir with an optional ceiling on cumulative
// deposits (the Foundation pool caps at 1.75B Algos; the transaction-fee
// pool is uncapped).
type Pool struct {
	name      string
	ceiling   float64 // 0 = uncapped
	deposited float64
	balance   float64
}

// NewFoundationPool creates the capped Foundation reward pool.
func NewFoundationPool() *Pool {
	return &Pool{name: "foundation", ceiling: FoundationCeiling}
}

// NewTransactionFeePool creates the uncapped fee pool that accumulates
// transaction fees for future disbursement.
func NewTransactionFeePool() *Pool {
	return &Pool{name: "transaction-fee"}
}

// Name returns the pool's identifier.
func (p *Pool) Name() string { return p.name }

// Balance returns the currently available Algos.
func (p *Pool) Balance() float64 { return p.balance }

// Deposited returns the cumulative amount ever deposited.
func (p *Pool) Deposited() float64 { return p.deposited }

// ErrPoolExhausted signals a withdrawal exceeding the pool balance.
var ErrPoolExhausted = errors.New("rewards: pool exhausted")

// ErrCeilingReached signals a deposit fully rejected by the pool ceiling.
var ErrCeilingReached = errors.New("rewards: pool ceiling reached")

// Deposit adds amount to the pool, truncating at the ceiling. It returns
// the amount actually accepted and ErrCeilingReached when that is zero.
func (p *Pool) Deposit(amount float64) (float64, error) {
	if amount < 0 {
		return 0, errors.New("rewards: negative deposit")
	}
	if p.ceiling > 0 {
		room := p.ceiling - p.deposited
		if room <= 0 {
			return 0, ErrCeilingReached
		}
		if amount > room {
			amount = room
		}
	}
	p.deposited += amount
	p.balance += amount
	return amount, nil
}

// Withdraw removes amount from the pool.
func (p *Pool) Withdraw(amount float64) error {
	if amount < 0 {
		return errors.New("rewards: negative withdrawal")
	}
	if amount > p.balance+1e-9 {
		return ErrPoolExhausted
	}
	p.balance -= amount
	if p.balance < 0 {
		p.balance = 0
	}
	return nil
}
