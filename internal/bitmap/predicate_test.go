package bitmap

import "testing"

func TestPredicateString(t *testing.T) {
	p1 := &ValuePred{Column: "z1", Code: 2}
	and := &AndPred{Children: []Predicate{p1, p1}}
	or := &OrPred{Children: []Predicate{p1}}
	if p1.String() != "z1=2" {
		t.Fatalf("ValuePred string %q", p1.String())
	}
	if and.String() != "(z1=2 AND z1=2)" {
		t.Fatalf("AndPred string %q", and.String())
	}
	if or.String() != "(z1=2)" {
		t.Fatalf("OrPred string %q", or.String())
	}
}
