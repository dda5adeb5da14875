// Package bigintalias is the fixture for the bigintalias analyzer:
// in-place mutation of values aliased from CachedSet accessors must be
// flagged; mutation of fresh copies must not.
package bigintalias

import (
	"math/big"

	"minshare/internal/commutative"
)

func positives(cs *commutative.CachedSet) {
	elems := cs.Elems()
	elems[0].Add(elems[0], big.NewInt(1)) // want `bigintalias: in-place big\.Int mutation \(Add\)`
	e := elems[1]
	e.SetInt64(0) // want `bigintalias: .*\(SetInt64\)`
	cs.Elems()[2].Exp(cs.Elems()[2], big.NewInt(2), nil) // want `bigintalias: .*\(Exp\)`
	for _, v := range cs.Elems() {
		v.Set(big.NewInt(0)) // want `bigintalias: .*\(Set\)`
	}
}

func negatives(cs *commutative.CachedSet, x *big.Int) *big.Int {
	// A fresh copy taken before mutation is the sanctioned pattern.
	cp := new(big.Int).Set(cs.Elems()[0])
	cp.Add(cp, big.NewInt(1))

	// Unrelated big.Ints mutate freely.
	y := new(big.Int).Set(x)
	y.Exp(y, big.NewInt(2), nil)

	// Key.Exponent documents that it returns a copy.
	exp := cs.Key().Exponent()
	exp.Add(exp, big.NewInt(1))

	// Rebinding a tainted variable to a fresh copy clears the taint.
	e := cs.Elems()[0]
	e = new(big.Int).Set(e)
	e.Sub(e, big.NewInt(1))

	// Reading accessors without mutating is fine.
	_ = cs.Elems()[0].Cmp(x)
	_ = cs.Payload()
	return cp
}
