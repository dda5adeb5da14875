// Package leakflow exercises the interprocedural taint engine: taint
// crossing function boundaries, carried through struct fields, channels
// and goroutines, cleared by sanitizers, and suppressed by documented
// lint:ignore directives.  Sites without a want comment are the
// negative half of each shape: the analyzer must stay silent there.
package leakflow

import (
	"context"
	"fmt"
	"math/big"

	"minshare/internal/commutative"
	"minshare/internal/oracle"
	"minshare/internal/transport"
	"minshare/internal/wire"
)

// ---- cross-function taint -------------------------------------------

// shout launders its argument through an interface{} parameter: the
// static type at the fmt sink is any, so only interprocedural analysis
// can connect it back to a secret.
func shout(v any) {
	fmt.Println(v)
}

func crossFunctionLeak(k *commutative.Key) {
	shout(k) // want `leakflow: unsanitized flow of a value of \(or containing\) commutative.Key into fmt.Println \(via shout\)`
}

func crossFunctionClean(n int) {
	shout(n) // a plain int is not a secret: no finding
}

// wrap launders a secret through a return value instead of a parameter.
func wrap(k *commutative.Key) any { return k }

func returnLaunderedLeak(k *commutative.Key) {
	fmt.Println(wrap(k)) // want `leakflow: unsanitized flow of a value of \(or containing\) commutative.Key into fmt.Println`
}

// ---- struct-field taint ---------------------------------------------

type vault struct {
	exp  *big.Int
	hash *big.Int
}

// fill stores raw key material into a field in one function …
func fill(v *vault, k *commutative.Key) {
	v.exp = k.Exponent()
}

// … and spill reads it back out in another: the flow exists only
// through the module-wide field relation.
func spill(ctx context.Context, v *vault, conn transport.Conn) {
	_ = conn.Send(ctx, v.exp.Bytes()) // want `leakflow: unsanitized flow of a raw key exponent \(commutative.Key.Exponent\) into transport Send`
}

// store is a setter: the secret reaches the field only through the
// helper's parameter, so the field relation must come from store's
// summary applied at the call site, not from a source inside it.
func store(v *vault, x *big.Int) {
	v.exp = x
}

func setterLaunderedFieldLeak(ctx context.Context, v *vault, k *commutative.Key, conn transport.Conn) {
	store(v, k.Exponent())
	_ = conn.Send(ctx, v.exp.Bytes()) // want `leakflow: unsanitized flow of a raw key exponent \(commutative.Key.Exponent\) into transport Send`
}

// fillHashed stores an oracle-hashed value instead: the hash is the
// protocol's wire representation, so reading it back is clean.
func fillHashed(v *vault, o *oracle.Oracle, payload []byte) {
	v.hash = o.Hash(payload)
}

func spillHashed(ctx context.Context, v *vault, conn transport.Conn) {
	_ = conn.Send(ctx, v.hash.Bytes()) // sanitized at the store: no finding
}

// ---- goroutine- and channel-carried taint ---------------------------

func goroutineLeak(k *commutative.Key) {
	exp := k.Exponent()
	go func(x *big.Int) {
		fmt.Println(x) // want `leakflow: unsanitized flow of a raw key exponent \(commutative.Key.Exponent\) into fmt.Println`
	}(exp)
}

func channelLeak(ctx context.Context, k *commutative.Key, conn transport.Conn) {
	ch := make(chan *big.Int, 1)
	ch <- k.Exponent()
	go func() {
		v := <-ch
		_ = conn.Send(ctx, v.Bytes()) // want `leakflow: unsanitized flow of a raw key exponent \(commutative.Key.Exponent\) into transport Send`
	}()
}

func goroutineClean(ctx context.Context, o *oracle.Oracle, payload []byte, conn transport.Conn) {
	h := o.Hash(payload)
	go func(x *big.Int) {
		_ = conn.Send(ctx, x.Bytes()) // hashed before the goroutine: no finding
	}(h)
}

// ---- sanitizer clearing ---------------------------------------------

// encryptThenSend is the protocol's own shape: hash through the oracle,
// apply the commutative encryption, ship the image.  Every hop is
// sanitized, so the whole chain is clean.
func encryptThenSend(ctx context.Context, s commutative.Scheme, k *commutative.Key, o *oracle.Oracle, payload []byte, conn transport.Conn) error {
	x := o.Hash(payload)
	y, err := s.Encrypt(k, x)
	if err != nil {
		return err
	}
	return conn.Send(ctx, y.Bytes())
}

// rawSend skips the sanitizers: the same value reaches the same sink
// unhashed and unencrypted.
func rawSend(ctx context.Context, k *commutative.Key, conn transport.Conn) error {
	exp := k.Exponent()
	return conn.Send(ctx, exp.Bytes()) // want `leakflow: unsanitized flow of a raw key exponent \(commutative.Key.Exponent\) into transport Send`
}

// encodeLeak puts raw key material into a wire message: serialization
// is not encryption, so the Codec encoder is a sink too.
func encodeLeak(c *wire.Codec, k *commutative.Key) ([]byte, error) {
	return c.Encode(wire.Elements{Elems: []*big.Int{k.Exponent()}}) // want `leakflow: unsanitized flow of a raw key exponent \(commutative.Key.Exponent\) into \(\*wire.Codec\).Encode`
}

// ---- suppression ----------------------------------------------------

func suppressedLeak(k *commutative.Key) {
	exp := k.Exponent()
	// lint:ignore leakflow fixture demonstrates a reviewed, documented suppression
	fmt.Println(exp.String())
}

// ---- division of labor with secretlog -------------------------------

// directSecretTypedArg is secretlog's finding (a local, type-level
// fact): leakflow must not double-report it.
func directSecretTypedArg(k *commutative.Key) {
	fmt.Println(k) // secretlog's site, not leakflow's: no leakflow finding
}
