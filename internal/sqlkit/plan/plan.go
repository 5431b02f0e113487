package plan

import (
	"fmt"
	"strings"

	"ml4db/internal/sqlkit/expr"
)

// Query is a select-project-join query: a list of base tables, conjunctive
// single-table filters, and equi-join conditions. This is exactly the SPJ
// class the paper notes learned optimizers handle.
type Query struct {
	// Tables holds catalog table IDs. Positions within this slice are the
	// "table positions" predicates and joins refer to.
	Tables []int
	// Filters[pos] are conjunctive predicates on the table at pos.
	Filters map[int][]expr.Pred
	// Joins are equi-join conditions between table positions.
	Joins []expr.JoinCond
	// Agg, when non-nil, applies a grouped aggregation on top of the join
	// result (see AggSpec). The optimizer plans it as an OpHashAgg root.
	Agg *AggSpec
}

// AggSpec is an optional grouped aggregation over the query result: one
// GROUP BY column and any number of SUM columns, each named as a (table
// position, column) pair like join conditions. The result has one row per
// group — [group value, COUNT(*), SUM(col)...] — emitted in ascending group
// order, which keeps aggregated results deterministic.
type AggSpec struct {
	// GroupTable/GroupCol name the grouping column.
	GroupTable, GroupCol int
	// Sums name the columns summed per group, in output order.
	Sums []AggCol
}

// AggCol names one aggregated column as a (table position, column) pair.
type AggCol struct {
	Table, Col int
}

// SetAgg installs a grouped aggregation on the query.
func (q *Query) SetAgg(groupTable, groupCol int, sums ...AggCol) *Query {
	q.Agg = &AggSpec{GroupTable: groupTable, GroupCol: groupCol, Sums: sums}
	return q
}

// NewQuery constructs an empty query over the given catalog table IDs.
func NewQuery(tableIDs ...int) *Query {
	return &Query{Tables: tableIDs, Filters: make(map[int][]expr.Pred)}
}

// AddFilter appends a predicate on the table at position pos.
func (q *Query) AddFilter(pos int, p expr.Pred) *Query {
	q.Filters[pos] = append(q.Filters[pos], p)
	return q
}

// AddJoin appends an equi-join condition.
func (q *Query) AddJoin(j expr.JoinCond) *Query {
	q.Joins = append(q.Joins, j)
	return q
}

// NumTables returns the number of base tables.
func (q *Query) NumTables() int { return len(q.Tables) }

// Signature returns a short string identifying the query's structure
// (tables, joins, filter columns) — used as a template key by workload-drift
// experiments.
func (q *Query) Signature() string {
	var b strings.Builder
	for i, t := range q.Tables {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "T%d", t)
		for _, f := range q.Filters[i] {
			fmt.Fprintf(&b, ":c%d%s", f.Col, f.Op)
		}
	}
	for _, j := range q.Joins {
		fmt.Fprintf(&b, "|%s", j)
	}
	if q.Agg != nil {
		fmt.Fprintf(&b, "|G%d.c%d", q.Agg.GroupTable, q.Agg.GroupCol)
		for _, s := range q.Agg.Sums {
			fmt.Fprintf(&b, "|S%d.c%d", s.Table, s.Col)
		}
	}
	return b.String()
}

// OpType identifies a physical operator.
type OpType int

// Physical operators of the execution engine.
const (
	OpSeqScan OpType = iota
	OpHashJoin
	OpNLJoin // tuple nested-loop join
	OpMergeJoin
	// OpIndexScan reads rows through a secondary index on IndexCol using
	// the node's interval predicate on that column, then applies the
	// remaining filters.
	OpIndexScan
	// OpHashAgg groups its single child's rows by GroupCol and emits one
	// row per group — [group, COUNT(*), SUM(col)...] — in ascending group
	// order.
	OpHashAgg
)

// String implements fmt.Stringer.
func (o OpType) String() string {
	switch o {
	case OpSeqScan:
		return "SeqScan"
	case OpHashJoin:
		return "HashJoin"
	case OpNLJoin:
		return "NLJoin"
	case OpMergeJoin:
		return "MergeJoin"
	case OpIndexScan:
		return "IndexScan"
	case OpHashAgg:
		return "HashAgg"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// AllJoinOps lists the join operators the optimizer may choose among.
var AllJoinOps = []OpType{OpHashJoin, OpNLJoin, OpMergeJoin}

// Node is a physical plan node. A leaf is a SeqScan of a base table with
// pushed-down filters; internal nodes are joins. Cost and cardinality
// annotations are filled by the optimizer; they are the "database
// statistics" features of plan representation (§3.1).
//
// A plan is read-only once the optimizer returns it: the executor records
// what it observed in a per-execution Actuals, never in the tree, so one
// tree can be cached and run by many sessions at once. Code that needs a
// variant of a plan mutates its own Clone.
type Node struct {
	Op       OpType
	Children []*Node

	// Scan fields (SeqScan and IndexScan).
	TablePos int // position in the query's table list
	TableID  int // catalog table ID
	Filters  []expr.Pred
	// IndexCol is the indexed column an IndexScan reads through.
	IndexCol int

	// Join fields: output-relative column offsets into the left and right
	// child schemas.
	LeftCol, RightCol int

	// Agg fields (OpHashAgg): output-relative offsets into the child
	// schema. GroupCol is the grouping column; SumCols are summed per
	// group.
	GroupCol int
	SumCols  []int

	// Partitions is the exchange degree: how many contiguous shards the
	// operator's parallel phase splits into. Zero or one mean serial. The
	// executor produces bit-identical rows and counters for every value —
	// partitioning only trades latency — so the optimizer costs the knob
	// and the plan cache keys on it purely for performance coherence.
	Partitions int

	// Optimizer annotations.
	EstRows float64
	EstCost float64

	// EstFetched is the optimizer's estimate of rows fetched through the
	// index before residual filtering (IndexScan only).
	EstFetched float64
}

// Actual is what one execution observed at one plan node.
type Actual struct {
	// Rows is the node's output cardinality.
	Rows float64
	// Fetched counts rows fetched through the index (IndexScan only).
	Fetched float64
	// PageMisses counts buffer-pool misses this scan charged (disk-backed
	// tables only; zero for in-memory scans).
	PageMisses float64
}

// Actuals is one execution's per-node observations, keyed by node the way
// EXPLAIN ANALYZE is: a node referenced twice in one tree holds one entry,
// written by its last run. A node that never ran reads as the zero Actual.
type Actuals map[*Node]Actual

// IsLeaf reports whether the node is a scan.
func (n *Node) IsLeaf() bool { return len(n.Children) == 0 }

// NewIndexScan constructs an index-scan leaf reading through the secondary
// index on col.
func NewIndexScan(tablePos, tableID, col int, filters []expr.Pred) *Node {
	return &Node{Op: OpIndexScan, TablePos: tablePos, TableID: tableID, IndexCol: col, Filters: filters}
}

// Tables returns the set of table positions covered by the subtree.
func (n *Node) Tables() []int {
	if n.IsLeaf() {
		return []int{n.TablePos}
	}
	var out []int
	for _, c := range n.Children {
		out = append(out, c.Tables()...)
	}
	return out
}

// Width returns the number of output columns of the subtree, given a lookup
// from table position to that base table's column count.
func (n *Node) Width(colsOf func(tablePos int) int) int {
	if n.IsLeaf() {
		return colsOf(n.TablePos)
	}
	if n.Op == OpHashAgg {
		return 2 + len(n.SumCols) // group, COUNT(*), one column per SUM
	}
	w := 0
	for _, c := range n.Children {
		w += c.Width(colsOf)
	}
	return w
}

// NumNodes returns the node count of the subtree.
func (n *Node) NumNodes() int {
	c := 1
	for _, ch := range n.Children {
		c += ch.NumNodes()
	}
	return c
}

// Depth returns the height of the subtree (1 for a leaf).
func (n *Node) Depth() int {
	d := 0
	for _, ch := range n.Children {
		if cd := ch.Depth(); cd > d {
			d = cd
		}
	}
	return d + 1
}

// Walk visits the subtree pre-order.
func (n *Node) Walk(visit func(*Node)) {
	visit(n)
	for _, c := range n.Children {
		c.Walk(visit)
	}
}

// Clone deep-copies the plan tree.
func (n *Node) Clone() *Node {
	out := *n
	out.Children = nil
	for _, c := range n.Children {
		out.Children = append(out.Children, c.Clone())
	}
	out.SumCols = append([]int(nil), n.SumCols...)
	return &out
}

// String renders the plan as an indented tree.
func (n *Node) String() string {
	var b strings.Builder
	n.render(&b, 0)
	return b.String()
}

func (n *Node) render(b *strings.Builder, depth int) {
	b.WriteString(strings.Repeat("  ", depth))
	if n.IsLeaf() {
		fmt.Fprintf(b, "%s(t%d#%d", n.Op, n.TablePos, n.TableID)
		if n.Op == OpIndexScan {
			fmt.Fprintf(b, " ix=c%d", n.IndexCol)
		}
		for _, f := range n.Filters {
			fmt.Fprintf(b, " %s", f)
		}
		b.WriteString(")")
	} else if n.Op == OpHashAgg {
		fmt.Fprintf(b, "%s(g=c%d", n.Op, n.GroupCol)
		for _, c := range n.SumCols {
			fmt.Fprintf(b, " sum=c%d", c)
		}
		b.WriteString(")")
	} else {
		fmt.Fprintf(b, "%s(l.c%d = r.c%d)", n.Op, n.LeftCol, n.RightCol)
	}
	if n.Partitions > 1 {
		fmt.Fprintf(b, " par=%d", n.Partitions)
	}
	fmt.Fprintf(b, " rows=%.0f cost=%.0f\n", n.EstRows, n.EstCost)
	for _, c := range n.Children {
		c.render(b, depth+1)
	}
}

// NewScan constructs a scan leaf.
func NewScan(tablePos, tableID int, filters []expr.Pred) *Node {
	return &Node{Op: OpSeqScan, TablePos: tablePos, TableID: tableID, Filters: filters}
}

// NewJoin constructs a join node over two children with output-relative key
// column offsets.
func NewJoin(op OpType, left, right *Node, leftCol, rightCol int) *Node {
	return &Node{Op: op, Children: []*Node{left, right}, LeftCol: leftCol, RightCol: rightCol}
}

// NewAgg constructs a hash-aggregation node over one child with
// output-relative column offsets.
func NewAgg(child *Node, groupCol int, sumCols ...int) *Node {
	return &Node{Op: OpHashAgg, Children: []*Node{child}, GroupCol: groupCol, SumCols: sumCols}
}
