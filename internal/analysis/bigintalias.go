package analysis

import (
	"go/ast"
	"go/types"
)

// BigIntAlias reports in-place mutation of big.Int values that alias
// state shared through commutative.CachedSet accessors.
//
// A CachedSet replays one bulk-exponentiation phase across many
// sessions, so the slices its accessors (Elems, Payload, Key) return
// are shared with the cache, not copied — the documented contract is
// "treat them as read-only".  Every big.Int method that writes its
// receiver (Set*, Add, Exp, Mod, …) called on such a value corrupts the
// cached ciphertexts for every later query, silently breaking the
// §6.1 warm-run guarantees and, worse, the correctness of the next
// peer's transcript.  Values must be copied (new(big.Int).Set(x))
// before mutation; the analyzer tracks aliases through assignment,
// indexing and range within each function.
var BigIntAlias = &Analyzer{
	Name: "bigintalias",
	Doc: "no mutating big.Int method may be called on values " +
		"shared through commutative.CachedSet accessors",
	Run: runBigIntAlias,
}

// bigIntMutators is every math/big.Int method that writes its receiver.
var bigIntMutators = map[string]bool{
	"Abs": true, "Add": true, "And": true, "AndNot": true, "Binomial": true,
	"Div": true, "DivMod": true, "Exp": true, "GCD": true, "GobDecode": true,
	"Lsh": true, "Mod": true, "ModInverse": true, "ModSqrt": true, "Mul": true,
	"MulRange": true, "Neg": true, "Not": true, "Or": true, "Quo": true,
	"QuoRem": true, "Rand": true, "Rem": true, "Rsh": true, "Scan": true,
	"Set": true, "SetBit": true, "SetBits": true, "SetBytes": true,
	"SetInt64": true, "SetString": true, "SetUint64": true, "Sqrt": true,
	"Sub": true, "UnmarshalJSON": true, "UnmarshalText": true, "Xor": true,
}

// cachedSetAccessors are the CachedSet methods whose results alias the
// cached state.
var cachedSetAccessors = map[string]bool{"Elems": true, "Payload": true, "Key": true}

func runBigIntAlias(pass *Pass) {
	// Objects known to alias cache-shared memory, discovered in source
	// order.  types.Object identity is unique per declaration, so one
	// package-wide set is sound across functions.
	shared := make(map[types.Object]bool)

	var isSharedExpr func(e ast.Expr) bool
	isSharedExpr = func(e ast.Expr) bool {
		switch e := ast.Unparen(e).(type) {
		case *ast.Ident:
			obj := exprObj(pass.Pkg, e)
			return obj != nil && shared[obj]
		case *ast.IndexExpr:
			return isSharedExpr(e.X)
		case *ast.UnaryExpr:
			return isSharedExpr(e.X)
		case *ast.StarExpr:
			return isSharedExpr(e.X)
		case *ast.CallExpr:
			f := calleeFunc(pass.Pkg, e)
			if f == nil {
				return false
			}
			p, r, ok := recvNamed(f)
			if !ok {
				return false
			}
			return cachedSetAccessors[f.Name()] && p == commutativePath && r == "CachedSet"
		case *ast.SelectorExpr:
			// Direct field reads off a CachedSet (visible inside the
			// owning package): c.elems, …
			if _, isField := pass.Pkg.Info.Selections[e]; !isField {
				return false
			}
			t := typeOf(pass.Pkg, e.X)
			if t == nil {
				return false
			}
			return isNamedType(t, commutativePath, "CachedSet")
		}
		return false
	}

	mark := func(lhs, rhs ast.Expr) {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		obj := exprObj(pass.Pkg, id)
		if obj == nil {
			return
		}
		if rhs != nil && isSharedExpr(rhs) {
			shared[obj] = true
		} else {
			// Rebinding to a fresh value clears the taint.
			delete(shared, obj)
		}
	}

	pass.inspect(func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					mark(n.Lhs[i], n.Rhs[i])
				}
			}
		case *ast.RangeStmt:
			if n.Value != nil && isSharedExpr(n.X) {
				mark(n.Value, n.X) // range over a shared slice yields shared elements
			}
		case *ast.CallExpr:
			sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			f := calleeFunc(pass.Pkg, n)
			if f == nil {
				return true
			}
			p, r, okRecv := recvNamed(f)
			if !okRecv {
				return true
			}
			if bigIntMutators[f.Name()] && p == "math/big" && r == "Int" && isSharedExpr(sel.X) {
				pass.Reportf(n.Pos(),
					"in-place big.Int mutation (%s) of a value shared through commutative.CachedSet — copy it first with new(big.Int).Set(x)",
					f.Name())
			}
		}
		return true
	})
}
