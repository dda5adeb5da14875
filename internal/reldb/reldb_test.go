package reldb

import (
	"reflect"
	"testing"
	"testing/quick"
)

func personSchema() *Schema {
	return MustSchema(
		Column{Name: "id", Type: TypeInt},
		Column{Name: "name", Type: TypeString},
		Column{Name: "active", Type: TypeBool},
	)
}

func TestValueRoundTrip(t *testing.T) {
	cases := []Value{
		String(""), String("hello"), String("héllo wörld"),
		Int(0), Int(-1), Int(1 << 62), Int(-(1 << 62)),
		Bool(true), Bool(false),
	}
	for _, v := range cases {
		got, err := DecodeValue(v.Encode())
		if err != nil {
			t.Fatalf("DecodeValue(%v): %v", v, err)
		}
		if !got.Equal(v) {
			t.Errorf("round trip %v -> %v", v, got)
		}
	}
}

func TestValueRoundTripProperty(t *testing.T) {
	f := func(s string, i int64, b bool) bool {
		for _, v := range []Value{String(s), Int(i), Bool(b)} {
			got, err := DecodeValue(v.Encode())
			if err != nil || !got.Equal(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestValueEncodingsInjectiveAcrossTypes(t *testing.T) {
	// Int(1) and String("\x00...\x01") etc. must not collide: the type
	// byte separates them.
	a := Int(1).Encode()
	b := String(string(Int(1).Encode()[1:])).Encode()
	if string(a) == string(b) {
		t.Error("cross-type encoding collision")
	}
}

func TestDecodeValueErrors(t *testing.T) {
	bad := [][]byte{
		nil,
		{},
		{byte(TypeInt), 1, 2}, // short int
		{byte(TypeBool)},      // missing payload
		{byte(TypeBool), 7},   // invalid bool
		{99, 1, 2, 3},         // unknown type
		{byte(TypeInvalid)},   // invalid type
	}
	for _, data := range bad {
		if _, err := DecodeValue(data); err == nil {
			t.Errorf("DecodeValue(%x) accepted garbage", data)
		}
	}
}

func TestValueAccessorsPanicOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("AsInt on a string did not panic")
		}
	}()
	_ = String("x").AsInt()
}

func TestSchemaValidation(t *testing.T) {
	if _, err := NewSchema(Column{Name: "", Type: TypeInt}); err == nil {
		t.Error("empty column name accepted")
	}
	if _, err := NewSchema(Column{Name: "a", Type: TypeInt}, Column{Name: "a", Type: TypeString}); err == nil {
		t.Error("duplicate column accepted")
	}
	if _, err := NewSchema(Column{Name: "a", Type: Type(42)}); err == nil {
		t.Error("invalid type accepted")
	}
	s := personSchema()
	if s.NumColumns() != 3 {
		t.Errorf("NumColumns = %d", s.NumColumns())
	}
	if i, err := s.ColumnIndex("name"); err != nil || i != 1 {
		t.Errorf("ColumnIndex(name) = %d, %v", i, err)
	}
	if _, err := s.ColumnIndex("missing"); err == nil {
		t.Error("missing column lookup succeeded")
	}
	if len(s.Columns()) != 3 {
		t.Error("Columns() wrong length")
	}
}

func TestInsertValidation(t *testing.T) {
	tb := NewTable("people", personSchema())
	if err := tb.Insert(Row{Int(1), String("ann"), Bool(true)}); err != nil {
		t.Fatal(err)
	}
	if err := tb.Insert(Row{Int(1), String("bob")}); err == nil {
		t.Error("wrong arity accepted")
	}
	if err := tb.Insert(Row{String("x"), String("bob"), Bool(false)}); err == nil {
		t.Error("wrong type accepted")
	}
	if tb.NumRows() != 1 {
		t.Errorf("NumRows = %d", tb.NumRows())
	}
}

func TestRowsAreCopies(t *testing.T) {
	tb := NewTable("people", personSchema())
	tb.MustInsert(Int(1), String("ann"), Bool(true))
	rows := tb.Rows()
	rows[0][1] = String("MUTATED")
	if tb.Rows()[0][1].AsString() != "ann" {
		t.Error("Rows() exposed internal storage")
	}
}

func TestSelectProject(t *testing.T) {
	tb := NewTable("people", personSchema())
	tb.MustInsert(Int(1), String("ann"), Bool(true))
	tb.MustInsert(Int(2), String("bob"), Bool(false))
	tb.MustInsert(Int(3), String("cat"), Bool(true))

	active := tb.Select(func(r Row) bool { return r[2].AsBool() })
	if active.NumRows() != 2 {
		t.Errorf("Select kept %d rows, want 2", active.NumRows())
	}

	names, err := active.Project("name")
	if err != nil {
		t.Fatal(err)
	}
	if names.NumRows() != 2 || names.Schema().NumColumns() != 1 {
		t.Errorf("Project shape wrong")
	}
	if names.Rows()[0][0].AsString() != "ann" {
		t.Error("Project lost data")
	}
	if _, err := tb.Project("nope"); err == nil {
		t.Error("Project on missing column succeeded")
	}
}

func TestColumnAndDistinctValues(t *testing.T) {
	tb := NewTable("t", MustSchema(Column{Name: "k", Type: TypeInt}))
	for _, k := range []int64{5, 3, 5, 7, 3, 5} {
		tb.MustInsert(Int(k))
	}
	all, err := tb.ColumnValues("k")
	if err != nil || len(all) != 6 {
		t.Fatalf("ColumnValues: %d, %v", len(all), err)
	}
	distinct, err := tb.DistinctValues("k")
	if err != nil || len(distinct) != 3 {
		t.Fatalf("DistinctValues: %d, %v", len(distinct), err)
	}
	// First-seen order: 5, 3, 7.
	want := []int64{5, 3, 7}
	for i, enc := range distinct {
		v, err := DecodeValue(enc)
		if err != nil || v.AsInt() != want[i] {
			t.Errorf("distinct[%d] = %v, want %d", i, v, want[i])
		}
	}
	if _, err := tb.ColumnValues("missing"); err == nil {
		t.Error("missing column accepted")
	}
}

func TestExtPayloadsRoundTrip(t *testing.T) {
	tb := NewTable("orders", MustSchema(
		Column{Name: "customer", Type: TypeString},
		Column{Name: "amount", Type: TypeInt},
	))
	tb.MustInsert(String("ann"), Int(10))
	tb.MustInsert(String("bob"), Int(20))
	tb.MustInsert(String("ann"), Int(30))

	values, exts, err := tb.ExtPayloads("customer")
	if err != nil {
		t.Fatal(err)
	}
	if len(values) != 2 || len(exts) != 2 {
		t.Fatalf("got %d groups, want 2", len(values))
	}
	// ann's group: two rows.
	v0, _ := DecodeValue(values[0])
	if v0.AsString() != "ann" {
		t.Fatalf("first group is %v", v0)
	}
	rows, err := DecodeRows(exts[0], 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0][1].AsInt() != 10 || rows[1][1].AsInt() != 30 {
		t.Errorf("ann's ext rows wrong: %v", rows)
	}
}

func TestDecodeRowsErrors(t *testing.T) {
	if _, err := DecodeRows([]byte{1, 2}, 1); err == nil {
		t.Error("truncated group accepted")
	}
	if _, err := DecodeRow([]byte{0, 0, 0, 9, 1}, 1); err == nil {
		t.Error("truncated row accepted")
	}
	// Wrong arity.
	r := Row{Int(1), Int(2)}
	if _, err := DecodeRow(r.Encode(), 3); err == nil {
		t.Error("arity mismatch accepted")
	}
}

func TestJoinMatchesManual(t *testing.T) {
	orders := NewTable("orders", MustSchema(
		Column{Name: "cust", Type: TypeString},
		Column{Name: "amount", Type: TypeInt},
	))
	orders.MustInsert(String("ann"), Int(10))
	orders.MustInsert(String("bob"), Int(20))
	orders.MustInsert(String("ann"), Int(30))

	people := NewTable("people", MustSchema(
		Column{Name: "name", Type: TypeString},
		Column{Name: "city", Type: TypeString},
	))
	people.MustInsert(String("ann"), String("oslo"))
	people.MustInsert(String("cat"), String("rome"))

	j, err := orders.Join(people, "cust", "name")
	if err != nil {
		t.Fatal(err)
	}
	if j.NumRows() != 2 {
		t.Fatalf("join rows = %d, want 2 (ann×2)", j.NumRows())
	}
	for _, r := range j.Rows() {
		if r[0].AsString() != "ann" || r[2].AsString() != "oslo" {
			t.Errorf("bad join row %v", r)
		}
	}
	if _, err := orders.Join(people, "cust", "nope"); err == nil {
		t.Error("join on missing column succeeded")
	}
}

func TestJoinDuplicateMultiplicities(t *testing.T) {
	a := NewTable("a", MustSchema(Column{Name: "k", Type: TypeInt}))
	b := NewTable("b", MustSchema(Column{Name: "k", Type: TypeInt}))
	for i := 0; i < 3; i++ {
		a.MustInsert(Int(7))
	}
	for i := 0; i < 2; i++ {
		b.MustInsert(Int(7))
	}
	j, err := a.Join(b, "k", "k")
	if err != nil {
		t.Fatal(err)
	}
	if j.NumRows() != 6 {
		t.Errorf("3×2 join produced %d rows", j.NumRows())
	}
}

func TestGroupByCount(t *testing.T) {
	tb := NewTable("t", MustSchema(
		Column{Name: "pattern", Type: TypeBool},
		Column{Name: "reaction", Type: TypeBool},
	))
	add := func(p, r bool, n int) {
		for i := 0; i < n; i++ {
			tb.MustInsert(Bool(p), Bool(r))
		}
	}
	add(true, true, 4)
	add(true, false, 3)
	add(false, false, 2)

	groups, err := tb.GroupByCount("pattern", "reaction")
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 3 {
		t.Fatalf("groups = %d, want 3", len(groups))
	}
	total := 0
	for _, g := range groups {
		total += g.Count
		if len(g.Key) != 2 {
			t.Errorf("key arity %d", len(g.Key))
		}
	}
	if total != 9 {
		t.Errorf("counts sum to %d, want 9", total)
	}
	if _, err := tb.GroupByCount("nope"); err == nil {
		t.Error("group by missing column succeeded")
	}
}

func TestGenPeopleTables(t *testing.T) {
	tR, tS := GenPeopleTables(500, 0.3, 0.5, 0.2, 42)
	if tR.NumRows() != 500 || tS.NumRows() != 500 {
		t.Fatalf("rows: %d, %d", tR.NumRows(), tS.NumRows())
	}
	// Determinism.
	tR2, _ := GenPeopleTables(500, 0.3, 0.5, 0.2, 42)
	if !reflect.DeepEqual(tR.Rows(), tR2.Rows()) {
		t.Error("GenPeopleTables not deterministic")
	}
	// Roughly the right fractions.
	pat := tR.Select(func(r Row) bool { return r[1].AsBool() }).NumRows()
	if pat < 100 || pat > 200 {
		t.Errorf("pattern count %d, expected ≈150", pat)
	}
	// reaction implies drug.
	bad := tS.Select(func(r Row) bool { return r[2].AsBool() && !r[1].AsBool() }).NumRows()
	if bad != 0 {
		t.Errorf("%d rows with reaction but no drug", bad)
	}
}

func TestGenOverlappingKeyTables(t *testing.T) {
	tR, tS := GenOverlappingKeyTables(10, 20, 4)
	vR, _ := tR.DistinctValues("key")
	vS, _ := tS.DistinctValues("key")
	if len(vR) != 10 || len(vS) != 20 {
		t.Fatalf("sizes %d, %d", len(vR), len(vS))
	}
	inS := map[string]bool{}
	for _, v := range vS {
		inS[string(v)] = true
	}
	shared := 0
	for _, v := range vR {
		if inS[string(v)] {
			shared++
		}
	}
	if shared != 4 {
		t.Errorf("overlap = %d, want 4", shared)
	}
}

func TestTypeStrings(t *testing.T) {
	for _, typ := range []Type{TypeString, TypeInt, TypeBool, Type(9)} {
		if typ.String() == "" {
			t.Errorf("Type(%d).String() empty", typ)
		}
	}
	if Int(5).String() != "5" || Bool(true).String() != "true" || String("s").String() != "s" {
		t.Error("Value.String wrong")
	}
	if (Value{}).String() != "<invalid>" {
		t.Error("invalid value String wrong")
	}
}
