package bitmap

import (
	"fmt"
	"strings"
)

// Predicate is a boolean combination of attribute-value tests defining a
// candidate (Appendix A.1.2). Leaves match a single value of a single
// column; internal nodes combine children with AND/OR. The tree is only
// a description: the engine compiles it into a row matcher and, from the
// columns' bitmap indexes, the set of blocks that may hold a match.
type Predicate interface {
	fmt.Stringer
}

// ValuePred matches Column == value (by code).
type ValuePred struct {
	Column string
	Code   uint32
}

func (p *ValuePred) String() string { return fmt.Sprintf("%s=%d", p.Column, p.Code) }

// AndPred matches the conjunction of its children.
type AndPred struct{ Children []Predicate }

func (p *AndPred) String() string { return joinPreds(p.Children, " AND ") }

// OrPred matches the disjunction of its children.
type OrPred struct{ Children []Predicate }

func (p *OrPred) String() string { return joinPreds(p.Children, " OR ") }

// joinPreds joins once rather than appending per child, which would copy
// the growing label for every child of a wide node.
func joinPreds(children []Predicate, sep string) string {
	parts := make([]string, len(children))
	for i, c := range children {
		parts[i] = c.String()
	}
	return "(" + strings.Join(parts, sep) + ")"
}
