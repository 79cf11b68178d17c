// Package noc implements gosst's interconnection-network models: standard
// topologies (2D mesh, 2D/3D torus, two-level fat tree, crossbar),
// deterministic routing, routers and links with serialization and
// contention, and NICs with a configurable injection-bandwidth throttle —
// the knob the network degradation study turns.
//
// The flow-control model is link-level: each directed link is a
// serialization server (bandwidth + latency) with unbounded buffering, the
// standard fast-network abstraction (LogGP-style per hop). It captures
// bandwidth contention, hot links and injection limits; it does not model
// flit-level virtual-channel arbitration, which the studied experiments do
// not depend on.
package noc

import "fmt"

// Topology describes routers, node attachment and deterministic routing.
type Topology interface {
	Name() string
	// NumRouters and NumNodes size the network; nodes are endpoints.
	NumRouters() int
	NumNodes() int
	// RouterOf returns the router a node attaches to.
	RouterOf(node int) int
	// Links enumerates undirected router pairs.
	Links() [][2]int
	// Route returns the next router on the path from router r toward
	// dstNode's router, or -1 when dstNode attaches to r (deliver
	// locally). Routing must be deterministic and loop-free.
	Route(r, dstNode int) int
	// Diameter returns the maximum hop count between any two routers.
	Diameter() int
}

// Mesh2D is a W×H mesh with one node per router and dimension-order (X
// then Y) routing.
type Mesh2D struct {
	W, H int
}

// NewMesh2D validates dimensions.
func NewMesh2D(w, h int) (*Mesh2D, error) {
	if w <= 0 || h <= 0 {
		return nil, fmt.Errorf("noc: mesh dimensions %dx%d invalid", w, h)
	}
	return &Mesh2D{W: w, H: h}, nil
}

func (m *Mesh2D) Name() string       { return fmt.Sprintf("mesh-%dx%d", m.W, m.H) }
func (m *Mesh2D) NumRouters() int    { return m.W * m.H }
func (m *Mesh2D) NumNodes() int      { return m.W * m.H }
func (m *Mesh2D) RouterOf(n int) int { return n }
func (m *Mesh2D) Diameter() int      { return m.W - 1 + m.H - 1 }

func (m *Mesh2D) Links() [][2]int {
	var ls [][2]int
	for y := 0; y < m.H; y++ {
		for x := 0; x < m.W; x++ {
			id := y*m.W + x
			if x+1 < m.W {
				ls = append(ls, [2]int{id, id + 1})
			}
			if y+1 < m.H {
				ls = append(ls, [2]int{id, id + m.W})
			}
		}
	}
	return ls
}

// Route implements X-then-Y dimension order.
func (m *Mesh2D) Route(r, dstNode int) int {
	dst := m.RouterOf(dstNode)
	if r == dst {
		return -1
	}
	rx, ry := r%m.W, r/m.W
	dx, dy := dst%m.W, dst/m.W
	switch {
	case rx < dx:
		return r + 1
	case rx > dx:
		return r - 1
	case ry < dy:
		return r + m.W
	default:
		return r - m.W
	}
}

// Torus3D is an X×Y×Z torus (set Z=1 for 2D) with one node per router and
// shortest-direction dimension-order routing — the Red Storm/Cray-style
// system interconnect.
type Torus3D struct {
	X, Y, Z int

	// coords[r] is router r's (x, y, z), precomputed by NewTorus3D:
	// Route needs both ends' coordinates on every hop, and the three
	// divisions cost more than the rest of routing.
	coords [][3]int
}

// NewTorus3D validates dimensions.
func NewTorus3D(x, y, z int) (*Torus3D, error) {
	if x <= 0 || y <= 0 || z <= 0 {
		return nil, fmt.Errorf("noc: torus dimensions %dx%dx%d invalid", x, y, z)
	}
	t := &Torus3D{X: x, Y: y, Z: z, coords: make([][3]int, x*y*z)}
	for r := range t.coords {
		t.coords[r] = [3]int{r % x, r / x % y, r / (x * y)}
	}
	return t, nil
}

func (t *Torus3D) Name() string       { return fmt.Sprintf("torus-%dx%dx%d", t.X, t.Y, t.Z) }
func (t *Torus3D) NumRouters() int    { return t.X * t.Y * t.Z }
func (t *Torus3D) NumNodes() int      { return t.NumRouters() }
func (t *Torus3D) RouterOf(n int) int { return n }

func (t *Torus3D) Diameter() int { return t.X/2 + t.Y/2 + t.Z/2 }

// Coords splits a router id into its (x, y, z) torus coordinates.
func (t *Torus3D) Coords(r int) (x, y, z int) {
	c := t.coords[r]
	return c[0], c[1], c[2]
}

func (t *Torus3D) id(x, y, z int) int { return z*t.X*t.Y + y*t.X + x }

func (t *Torus3D) Links() [][2]int {
	var ls [][2]int
	add := func(a, b int) {
		if a < b {
			ls = append(ls, [2]int{a, b})
		} else if b < a {
			ls = append(ls, [2]int{b, a})
		}
	}
	seen := map[[2]int]bool{}
	for r := 0; r < t.NumRouters(); r++ {
		x, y, z := t.Coords(r)
		add(r, t.id((x+1)%t.X, y, z))
		add(r, t.id(x, (y+1)%t.Y, z))
		add(r, t.id(x, y, (z+1)%t.Z))
	}
	// Dedup (size-2 rings produce duplicate pairs).
	out := ls[:0]
	for _, l := range ls {
		if !seen[l] {
			seen[l] = true
			out = append(out, l)
		}
	}
	return out
}

// step moves coordinate c toward d around a ring of size n, taking the
// shorter way (ties go up).
func step(c, d, n int) int {
	if c == d {
		return c
	}
	fwd := (d - c + n) % n
	if fwd <= n-fwd {
		return (c + 1) % n
	}
	return (c - 1 + n) % n
}

// Route implements shortest-way dimension order (X, then Y, then Z).
func (t *Torus3D) Route(r, dstNode int) int {
	dst := t.RouterOf(dstNode)
	if r == dst {
		return -1
	}
	x, y, z := t.Coords(r)
	dx, dy, dz := t.Coords(dst)
	switch {
	case x != dx:
		return t.id(step(x, dx, t.X), y, z)
	case y != dy:
		return t.id(x, step(y, dy, t.Y), z)
	default:
		return t.id(x, y, step(z, dz, t.Z))
	}
}

// FatTree is a two-level fat tree: NumEdge edge switches with NodesPerEdge
// nodes each, and NumCore core switches each connected to every edge
// switch. Up-route selection hashes the destination so a given pair always
// uses the same core (deterministic routing).
type FatTree struct {
	NumEdge, NodesPerEdge, NumCore int
}

// NewFatTree validates shape. Full bisection needs NumCore >= NodesPerEdge.
func NewFatTree(edges, nodesPerEdge, cores int) (*FatTree, error) {
	if edges <= 0 || nodesPerEdge <= 0 || cores <= 0 {
		return nil, fmt.Errorf("noc: fat tree %d/%d/%d invalid", edges, nodesPerEdge, cores)
	}
	return &FatTree{NumEdge: edges, NodesPerEdge: nodesPerEdge, NumCore: cores}, nil
}

func (f *FatTree) Name() string {
	return fmt.Sprintf("fattree-%de-%dn-%dc", f.NumEdge, f.NodesPerEdge, f.NumCore)
}

// Routers: edge switches are 0..NumEdge-1; cores are NumEdge..NumEdge+NumCore-1.
func (f *FatTree) NumRouters() int    { return f.NumEdge + f.NumCore }
func (f *FatTree) NumNodes() int      { return f.NumEdge * f.NodesPerEdge }
func (f *FatTree) RouterOf(n int) int { return n / f.NodesPerEdge }
func (f *FatTree) Diameter() int      { return 2 }

func (f *FatTree) Links() [][2]int {
	var ls [][2]int
	for e := 0; e < f.NumEdge; e++ {
		for c := 0; c < f.NumCore; c++ {
			ls = append(ls, [2]int{e, f.NumEdge + c})
		}
	}
	return ls
}

// Route goes up to a destination-hashed core, then down.
func (f *FatTree) Route(r, dstNode int) int {
	dstEdge := f.RouterOf(dstNode)
	if r < f.NumEdge {
		if r == dstEdge {
			return -1
		}
		return f.NumEdge + dstNode%f.NumCore
	}
	return dstEdge
}

// Crossbar connects every node to a single ideal switch.
type Crossbar struct {
	N int
}

// NewCrossbar validates size.
func NewCrossbar(n int) (*Crossbar, error) {
	if n <= 0 {
		return nil, fmt.Errorf("noc: crossbar size %d invalid", n)
	}
	return &Crossbar{N: n}, nil
}

func (c *Crossbar) Name() string       { return fmt.Sprintf("xbar-%d", c.N) }
func (c *Crossbar) NumRouters() int    { return 1 }
func (c *Crossbar) NumNodes() int      { return c.N }
func (c *Crossbar) RouterOf(n int) int { return 0 }
func (c *Crossbar) Diameter() int      { return 0 }
func (c *Crossbar) Links() [][2]int    { return nil }
func (c *Crossbar) Route(r, dstNode int) int {
	return -1 // everything is local to the one router
}
