package reldb

import "math/rand"

// Workload generators for the experiment harness.  Scale-free synthetic
// stand-ins for the paper's enterprise datasets (DESIGN.md substitution
// table): the protocols' costs depend only on set sizes and duplicate
// structure, both of which these generators control exactly.

// GenPeopleTables builds the two tables of the medical research
// application (Section 1.1, Application 2):
//
//	T_R(personid, pattern)         — enterprise R: DNA pattern presence
//	T_S(personid, drug, reaction)  — enterprise S: drug intake and reaction
//
// n people exist in each enterprise; fractions control how many carry the
// DNA pattern, took drug G, and (of those) had an adverse reaction.  The
// generator is deterministic in seed.
func GenPeopleTables(n int, patternFrac, drugFrac, reactionFrac float64, seed int64) (tR, tS *Table) {
	rng := rand.New(rand.NewSource(seed))
	tR = NewTable("T_R", MustSchema(
		Column{Name: "personid", Type: TypeInt},
		Column{Name: "pattern", Type: TypeBool},
	))
	tS = NewTable("T_S", MustSchema(
		Column{Name: "personid", Type: TypeInt},
		Column{Name: "drug", Type: TypeBool},
		Column{Name: "reaction", Type: TypeBool},
	))
	for id := 0; id < n; id++ {
		pattern := rng.Float64() < patternFrac
		drug := rng.Float64() < drugFrac
		reaction := drug && rng.Float64() < reactionFrac
		tR.MustInsert(Int(int64(id)), Bool(pattern))
		tS.MustInsert(Int(int64(id)), Bool(drug), Bool(reaction))
	}
	return tR, tS
}

// GenOverlappingKeyTables builds two single-key-column tables whose key
// sets overlap in exactly `shared` values — the controlled workload for
// intersection experiments at a given selectivity.
func GenOverlappingKeyTables(nR, nS, shared int) (tR, tS *Table) {
	if shared > nR || shared > nS {
		panic("reldb: shared exceeds a table size")
	}
	schema := MustSchema(Column{Name: "key", Type: TypeInt})
	tR = NewTable("R", schema)
	tS = NewTable("S", schema)
	// Shared keys: 0..shared-1.  R-only: 1e9+i.  S-only: 2e9+i.
	for i := 0; i < shared; i++ {
		tR.MustInsert(Int(int64(i)))
		tS.MustInsert(Int(int64(i)))
	}
	for i := 0; i < nR-shared; i++ {
		tR.MustInsert(Int(int64(1_000_000_000 + i)))
	}
	for i := 0; i < nS-shared; i++ {
		tS.MustInsert(Int(int64(2_000_000_000 + i)))
	}
	return tR, tS
}
