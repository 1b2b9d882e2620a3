package reldb

import (
	"reflect"
	"testing"
	"testing/quick"
)

func carsTable(t *testing.T) *Table {
	t.Helper()
	tbl, err := NewTable("cars", []Column{
		{"make", KindString},
		{"model", KindString},
		{"year", KindInt},
		{"price", KindInt},
		{"notes", KindText},
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := []Row{
		{S("ford"), S("focus"), I(1993), I(2500), T("clean title, runs great")},
		{S("ford"), S("escort"), I(1997), I(1800), T("needs new tires")},
		{S("honda"), S("civic"), I(1993), I(3100), T("better mileage than the ford focus")},
		{S("honda"), S("accord"), I(2001), I(5200), T("one owner")},
		{S("toyota"), S("corolla"), I(1999), I(4100), T("reliable commuter")},
	}
	for _, r := range rows {
		if err := tbl.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

func TestNewTableRejectsDuplicateColumns(t *testing.T) {
	_, err := NewTable("bad", []Column{{"x", KindInt}, {"x", KindString}})
	if err == nil {
		t.Fatal("want error for duplicate column")
	}
}

func TestInsertValidation(t *testing.T) {
	tbl := MustNewTable("t", []Column{{"a", KindInt}})
	if err := tbl.Insert(Row{S("nope")}); err == nil {
		t.Error("want kind mismatch error")
	}
	if err := tbl.Insert(Row{I(1), I(2)}); err == nil {
		t.Error("want arity error")
	}
	if err := tbl.Insert(Row{I(1)}); err != nil {
		t.Errorf("valid insert failed: %v", err)
	}
	if tbl.Len() != 1 {
		t.Errorf("Len = %d, want 1", tbl.Len())
	}
}

func TestSelectEq(t *testing.T) {
	tbl := carsTable(t)
	got := tbl.Select(Eq("make", S("ford")))
	if !reflect.DeepEqual(got, []int{0, 1}) {
		t.Errorf("Select(make=ford) = %v, want [0 1]", got)
	}
	// Case-insensitive.
	got = tbl.Select(Eq("make", S("FORD")))
	if len(got) != 2 {
		t.Errorf("case-insensitive Eq got %v", got)
	}
}

func TestSelectConjunction(t *testing.T) {
	tbl := carsTable(t)
	got := tbl.Select(Eq("make", S("honda")), Eq("year", I(1993)))
	if !reflect.DeepEqual(got, []int{2}) {
		t.Errorf("conjunctive select = %v, want [2]", got)
	}
}

func TestSelectRange(t *testing.T) {
	tbl := carsTable(t)
	got := tbl.Select(Range("price", 2000, 4500))
	if !reflect.DeepEqual(got, []int{0, 2, 4}) {
		t.Errorf("price range = %v, want [0 2 4]", got)
	}
	got = tbl.Select(Range("price", OpenLow, 2000))
	if !reflect.DeepEqual(got, []int{1}) {
		t.Errorf("open-low range = %v, want [1]", got)
	}
	got = tbl.Select(Range("price", 5000, OpenHigh))
	if !reflect.DeepEqual(got, []int{3}) {
		t.Errorf("open-high range = %v, want [3]", got)
	}
}

func TestSelectContains(t *testing.T) {
	tbl := carsTable(t)
	// The "ford focus" keyword query matches the Honda Civic row too —
	// the paper's §5.1 lost-semantics example, kept here as ground truth.
	got := tbl.Select(ContainsAll("ford", "focus"))
	if !reflect.DeepEqual(got, []int{0, 2}) {
		t.Errorf("ContainsAll(ford,focus) = %v, want [0 2]", got)
	}
	got = tbl.Select(ContainsAll("1993"))
	if !reflect.DeepEqual(got, []int{0, 2}) {
		t.Errorf("ContainsAll(1993) = %v, want [0 2]", got)
	}
}

// The empty keyword predicate matches every row: a form submitted with
// all inputs blank selects everything.
func TestTruePredicate(t *testing.T) {
	tbl := carsTable(t)
	if got := len(tbl.Select(ContainsAll())); got != tbl.Len() {
		t.Errorf("ContainsAll() matched %d rows, want %d", got, tbl.Len())
	}
}

func TestDistinctStrings(t *testing.T) {
	tbl := carsTable(t)
	got := tbl.DistinctStrings("make")
	want := []string{"ford", "honda", "toyota"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("DistinctStrings = %v, want %v", got, want)
	}
	if tbl.DistinctStrings("nosuch") != nil {
		t.Error("unknown column should give nil")
	}
}

func TestDistinctInts(t *testing.T) {
	tbl := carsTable(t)
	got := tbl.DistinctInts("year")
	want := []int64{1993, 1997, 1999, 2001}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("DistinctInts = %v, want %v", got, want)
	}
}

func TestRowText(t *testing.T) {
	tbl := carsTable(t)
	got := tbl.RowText(0)
	want := "ford focus 1993 2500 clean title, runs great"
	if got != want {
		t.Errorf("RowText = %q, want %q", got, want)
	}
}

func TestValueString(t *testing.T) {
	if I(42).String() != "42" || S("x").String() != "x" || T("y z").String() != "y z" {
		t.Error("Value.String misrendered")
	}
}

func TestValueEqual(t *testing.T) {
	if !I(1).Equal(I(1)) || I(1).Equal(I(2)) || I(1).Equal(S("1")) {
		t.Error("Value.Equal wrong")
	}
}

func TestKindString(t *testing.T) {
	if KindString.String() != "string" || KindInt.String() != "int" || KindText.String() != "text" {
		t.Error("Kind.String wrong")
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind should still render")
	}
}

// Property: Select with a range predicate returns exactly the rows whose
// value lies in the range, and the result is sorted.
func TestSelectRangeProperty(t *testing.T) {
	f := func(vals []int16, lo16, hi16 int16) bool {
		tbl := MustNewTable("p", []Column{{"v", KindInt}})
		for _, v := range vals {
			tbl.MustInsert(Row{I(int64(v))})
		}
		lo, hi := int64(lo16), int64(hi16)
		got := tbl.Select(Range("v", lo, hi))
		prev := -1
		for _, i := range got {
			if i <= prev {
				return false // not strictly increasing
			}
			prev = i
			v := tbl.Row(i)[0].Int
			if v < lo || v > hi {
				return false
			}
		}
		// Completeness: every in-range row is present.
		want := 0
		for _, v := range vals {
			if int64(v) >= lo && int64(v) <= hi {
				want++
			}
		}
		return len(got) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: conjunction is order-independent.
func TestSelectConjunctionCommutes(t *testing.T) {
	tbl := carsTable(t)
	f := func(lo, hi int16) bool {
		p1 := []Pred{Eq("make", S("ford")), Range("price", int64(lo), int64(hi))}
		p2 := []Pred{Range("price", int64(lo), int64(hi)), Eq("make", S("ford"))}
		return reflect.DeepEqual(tbl.Select(p1...), tbl.Select(p2...))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
