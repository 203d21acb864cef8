package sketch

import (
	"sync"

	"uncertts/internal/arena"
)

// The bucket tree is an iSAX-style index over the sketch rows: leaves hold
// up to leafCap members, and a leaf that overflows splits on the raw-value
// PAA symbol with the widest extent at its midpoint — each split refines
// that symbol's quantisation by one bit, which is exactly iSAX's
// variable-cardinality idea expressed as a binary tree. Every node carries
// the elementwise [min, max] region of its members' full sketch rows; a
// lower bound over a bucket reads only those two vectors, so a bucket is
// admitted or skipped in O(W) regardless of its size.
//
// Trees are persistent (copy-on-write) with generation tags: Update bumps
// the generation and shallow-copies only the nodes it touches, so a batch of
// inserts and deletes amortises its path copies and the version it started
// from stays intact. A tree returned by Update or Build is never mutated
// again — readers may hold it indefinitely.
//
// Deletes descend by the removed member's own sketch row (the row must still
// be readable in mat), which lands on the same leaf the insert chose.
// Emptied leaves are kept (their region is cleared and Buckets skips them).

// Member identifies one series in the tree: its stable corpus ID and its
// row in the sketch arena. On a dense snapshot the row equals the series'
// snapshot position; sparse snapshots resolve positions through their
// position -> row index.
type Member struct {
	ID  int
	Row int
}

type node struct {
	gen    uint64
	lo, hi []float64 // elementwise region over the full stride; nil when empty

	members []Member // leaf payload; internal nodes keep it nil

	left, right *node // both nil for leaves, both set for internal nodes
	dim         int   // split symbol (internal nodes)
	thr         float64
}

func (n *node) leaf() bool { return n.left == nil }

// Tree is one immutable version of the bucket tree.
type Tree struct {
	lay     Layout
	leafCap int
	gen     uint64
	root    *node
	size    int

	// buckets memoises Buckets(): a version never changes, so its leaf list
	// is collected by whoever asks first and shared by everyone after.
	bucketsOnce sync.Once
	buckets     []Bucket
}

// NewTree returns an empty tree for the layout (leafCap <= 0 adopts
// DefaultLeafCap).
func NewTree(lay Layout, leafCap int) *Tree {
	if leafCap <= 0 {
		leafCap = DefaultLeafCap
	}
	return &Tree{lay: lay, leafCap: leafCap}
}

// Layout returns the sketch-row geometry the tree indexes.
func (t *Tree) Layout() Layout { return t.lay }

// LeafCap returns the split-on-overflow leaf capacity.
func (t *Tree) LeafCap() int { return t.leafCap }

// Len returns the number of members.
func (t *Tree) Len() int { return t.size }

// Build bulk-builds a tree over the members: one oversized leaf split
// recursively — the same split rule the incremental path applies, so an
// incrementally maintained tree and a bulk-built one answer queries
// identically (bucket shapes may differ; every bound is sound for both).
func Build(lay Layout, leafCap int, members []Member, mat arena.Matrix) *Tree {
	t := NewTree(lay, leafCap)
	t.gen = 1
	if len(members) == 0 {
		return t
	}
	n := &node{gen: t.gen, members: append([]Member(nil), members...)}
	n.lo, n.hi = regionOf(n.members, mat, t.lay.Stride())
	t.splitOverflow(n, mat)
	t.root = n
	t.size = len(members)
	return t
}

// Update returns a new tree version with the deletes removed and the
// inserts added, reading member rows from mat. The receiver is left intact
// (persistent update); only nodes on the touched paths are copied.
func (t *Tree) Update(mat arena.Matrix, inserts, deletes []Member) *Tree {
	nt := &Tree{lay: t.lay, leafCap: t.leafCap, gen: t.gen + 1, root: t.root, size: t.size}
	for _, m := range deletes {
		nt.root = nt.remove(nt.root, m, mat.Row(m.Row), mat)
	}
	for _, m := range inserts {
		nt.root = nt.insert(nt.root, m, mat.Row(m.Row), mat)
	}
	return nt
}

// touch returns a node owned by the tree's generation, copying n (and its
// region and member storage, which later mutations write) when it belongs
// to an older version.
func (t *Tree) touch(n *node) *node {
	if n.gen == t.gen {
		return n
	}
	c := &node{gen: t.gen, left: n.left, right: n.right, dim: n.dim, thr: n.thr}
	if n.lo != nil {
		c.lo = append([]float64(nil), n.lo...)
		c.hi = append([]float64(nil), n.hi...)
	}
	if n.members != nil {
		c.members = append([]Member(nil), n.members...)
	}
	return c
}

func (t *Tree) insert(n *node, m Member, row []float64, mat arena.Matrix) *node {
	if n == nil {
		nn := &node{gen: t.gen, members: []Member{m}}
		nn.lo = append([]float64(nil), row...)
		nn.hi = append([]float64(nil), row...)
		t.size++
		return nn
	}
	n = t.touch(n)
	if n.leaf() {
		n.members = append(n.members, m)
		if n.lo == nil {
			n.lo = append([]float64(nil), row...)
			n.hi = append([]float64(nil), row...)
		} else {
			extendRegion(n.lo, n.hi, row)
		}
		t.size++
		t.splitOverflow(n, mat)
		return n
	}
	if row[n.dim] <= n.thr {
		n.left = t.insert(n.left, m, row, mat)
	} else {
		n.right = t.insert(n.right, m, row, mat)
	}
	unionRegion(n)
	return n
}

func (t *Tree) remove(n *node, m Member, row []float64, mat arena.Matrix) *node {
	if n == nil {
		return nil
	}
	n = t.touch(n)
	if n.leaf() {
		for i, mm := range n.members {
			if mm.ID == m.ID {
				n.members = append(n.members[:i], n.members[i+1:]...)
				t.size--
				n.lo, n.hi = regionOf(n.members, mat, t.lay.Stride())
				break
			}
		}
		return n
	}
	if row[n.dim] <= n.thr {
		n.left = t.remove(n.left, m, row, mat)
	} else {
		n.right = t.remove(n.right, m, row, mat)
	}
	unionRegion(n)
	return n
}

// splitOverflow splits a leaf that exceeds the capacity, recursively, on
// the widest raw-value PAA symbol at its midpoint. A leaf whose members all
// share identical symbols (zero extent on every dimension) cannot split and
// is left overflowing; a midpoint whose floating-point rounding would strand
// every member on one side likewise leaves the leaf intact.
func (t *Tree) splitOverflow(n *node, mat arena.Matrix) {
	if len(n.members) <= t.leafCap {
		return
	}
	best, bestExt := -1, 0.0
	for d := 0; d < t.lay.W; d++ {
		if ext := n.hi[d] - n.lo[d]; ext > bestExt {
			best, bestExt = d, ext
		}
	}
	if best < 0 {
		return
	}
	thr := n.lo[best] + (n.hi[best]-n.lo[best])/2
	var left, right []Member
	for _, m := range n.members {
		if mat.Row(m.Row)[best] <= thr {
			left = append(left, m)
		} else {
			right = append(right, m)
		}
	}
	if len(left) == 0 || len(right) == 0 {
		return
	}
	l := &node{gen: t.gen, members: left}
	l.lo, l.hi = regionOf(left, mat, t.lay.Stride())
	r := &node{gen: t.gen, members: right}
	r.lo, r.hi = regionOf(right, mat, t.lay.Stride())
	t.splitOverflow(l, mat)
	t.splitOverflow(r, mat)
	n.members = nil
	n.left, n.right = l, r
	n.dim, n.thr = best, thr
}

// regionOf computes the elementwise [min, max] region over the members'
// rows (nil, nil when there are none).
func regionOf(members []Member, mat arena.Matrix, stride int) (lo, hi []float64) {
	if len(members) == 0 {
		return nil, nil
	}
	first := mat.Row(members[0].Row)
	lo = append(make([]float64, 0, stride), first...)
	hi = append(make([]float64, 0, stride), first...)
	for _, m := range members[1:] {
		extendRegion(lo, hi, mat.Row(m.Row))
	}
	return lo, hi
}

func extendRegion(lo, hi, row []float64) {
	for i, v := range row {
		if v < lo[i] {
			lo[i] = v
		}
		if v > hi[i] {
			hi[i] = v
		}
	}
}

// unionRegion recomputes an internal node's region as the union of its
// children's (children may be empty after deletes).
func unionRegion(n *node) {
	l, r := n.left, n.right
	switch {
	case l.lo == nil && r.lo == nil:
		n.lo, n.hi = nil, nil
	case l.lo == nil:
		n.lo = append(n.lo[:0], r.lo...)
		n.hi = append(n.hi[:0], r.hi...)
	case r.lo == nil:
		n.lo = append(n.lo[:0], l.lo...)
		n.hi = append(n.hi[:0], l.hi...)
	default:
		n.lo = append(n.lo[:0], l.lo...)
		n.hi = append(n.hi[:0], l.hi...)
		extendRegion(n.lo, n.hi, r.lo)
		extendRegion(n.lo, n.hi, r.hi)
	}
}

// Bucket is one non-empty leaf as a reader consumes it: the region
// vectors and the member list, all aliasing the tree's immutable storage —
// callers must treat them as read-only.
type Bucket struct {
	Lo, Hi  []float64
	Members []Member
}

// Locate descends to the leaf a row with the given raw-value PAA symbols
// would land on — the query's "home" leaf, holding its nearest SAX
// neighbours — and returns its index in Buckets() order, or -1 when that
// leaf is empty (or the tree is). The point need not be resident; any
// vector's PAA works.
func (t *Tree) Locate(paa []float64) int {
	n := t.root
	if n == nil {
		return -1
	}
	for !n.leaf() {
		if paa[n.dim] <= n.thr {
			n = n.left
		} else {
			n = n.right
		}
	}
	if len(n.members) == 0 {
		return -1
	}
	idx := -1
	pos := 0
	var walk func(m *node)
	walk = func(m *node) {
		if m == nil || idx >= 0 {
			return
		}
		if m.leaf() {
			if m == n {
				idx = pos
			} else if len(m.members) > 0 {
				pos++
			}
			return
		}
		walk(m.left)
		walk(m.right)
	}
	walk(t.root)
	return idx
}

// Buckets returns the non-empty leaves in tree order, collected once per
// tree version. The slice is shared: callers must not modify it.
func (t *Tree) Buckets() []Bucket {
	t.bucketsOnce.Do(func() {
		var walk func(n *node)
		walk = func(n *node) {
			if n == nil {
				return
			}
			if n.leaf() {
				if len(n.members) > 0 {
					t.buckets = append(t.buckets, Bucket{Lo: n.lo, Hi: n.hi, Members: n.members})
				}
				return
			}
			walk(n.left)
			walk(n.right)
		}
		walk(t.root)
	})
	return t.buckets
}
