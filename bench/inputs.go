package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
)

// The bench owns every input it feeds the program: query texts are literals
// below, databases and request orders come from math/rand seeded by -seed.
// Nothing here imports the repository's generators, so a later change to
// internal/gen cannot move a workload; inputSHA pins the result.

// A template is one named query text of a pool.
type template struct {
	name string
	src  string
}

// servingTemplates is the five-shape serving pool over the shared binary
// relations r1..r4, in zipf rank order (rank 0 is the hottest).
var servingTemplates = []template{
	{"path3", `r1(X1, X2), r2(X2, X3), r3(X3, X4)`},
	{"path2-enum", `ans(X1, X3) :- r1(X1, X2), r2(X2, X3).`},
	{"triangle", `r1(X1, X2), r2(X2, X3), r3(X3, X1)`},
	{"cycle4", `r1(X1, X2), r2(X2, X3), r3(X3, X4), r4(X4, X1)`},
	{"star3", `r1(C, X1), r2(C, X2), r3(C, X3)`},
}

// lightTemplates is servingTemplates without cycle4, whose width-2 bag is a
// near-quadratic product: serve_hot leaves it out so that per-request fixed
// costs, not a join, set the latency.
func lightTemplates() []template {
	var out []template
	for _, t := range servingTemplates {
		if t.name != "cycle4" {
			out = append(out, t)
		}
	}
	return out
}

var (
	cyclicTemplate = template{"triangle-bool", `e1(X, Y), e2(Y, Z), e3(Z, X)`}
	enumTemplate   = template{"path3-enum", `ans(X1, X2, X3, X4) :- r1(X1, X2), r2(X2, X3), r3(X3, X4).`}
)

// Pinned sizes. They are constants, never derived at run time, so two
// commits always see the same work.
const (
	serveRows, serveDomain   = 500, 200
	cyclicRows, cyclicDomain = 50_000, 25_000
	enumRows, enumDomain     = 15_000, 7_500
	ingestBatch              = 40 // tuples per /admin/ingest on serve_churn
	hotSkew, churnSkew       = 1.2, 1.2
	planSkew                 = 1.0
	requestMaxRows           = 10
)

// factsText renders one binary relation per name, exactly rows distinct tuples
// each over constants d0..d<domain-1>, in the facts syntax hdserve -db loads.
// The relations are random but degree-regular: every constant occurs in the
// first column, and in the second, ⌊rows/domain⌋ times or once more (each
// relation is a union of random permutations, the last one partial). Which
// tuples exist depends on the seed; the statistics the planner sees and the
// number of tuples every join step produces do not. Two seeds therefore get
// the same plans and cost the program the same work, and the run-to-run spread
// measures the machine, not the draw. (With independently drawn tuples the
// row counts differ by a few duplicates per seed, the cost model's ties break
// differently, and cycle4 alone runs anywhere from 23 to 45 ms.)
func factsText(rng *rand.Rand, names []string, rows, domain int) string {
	var b strings.Builder
	b.Grow(rows * len(names) * 20)
	for _, name := range names {
		has := make(map[[2]int]bool, rows)
		for left := rows; left > 0; left -= domain {
			n := min(left, domain)
			src, dst := rng.Perm(domain), rng.Perm(domain)
			for i := 0; i < n; i++ {
				// A pair an earlier permutation already holds: trade targets
				// with another position, as long as that breaks nothing.
				for has[[2]int{src[i], dst[i]}] {
					j := rng.Intn(domain)
					if j < i {
						if has[[2]int{src[j], dst[i]}] || has[[2]int{src[i], dst[j]}] {
							continue
						}
						delete(has, [2]int{src[j], dst[j]})
						has[[2]int{src[j], dst[i]}] = true
					}
					dst[i], dst[j] = dst[j], dst[i]
				}
				has[[2]int{src[i], dst[i]}] = true
			}
			for i := 0; i < n; i++ {
				fmt.Fprintf(&b, "%s(d%d,d%d).\n", name, src[i], dst[i])
			}
		}
	}
	return b.String()
}

// ingestBatches renders n batches of ingestBatch uniformly random tuples
// spread evenly over r1..r4, each batch one /admin/ingest payload.
func ingestBatches(rng *rand.Rand, n int) []string {
	out := make([]string, n)
	for i := range out {
		var b strings.Builder
		for _, name := range serveRelations {
			for j := 0; j < ingestBatch/len(serveRelations); j++ {
				fmt.Fprintf(&b, "%s(d%d,d%d).\n", name, rng.Intn(serveDomain), rng.Intn(serveDomain))
			}
		}
		out[i] = b.String()
	}
	return out
}

// serveRelations are the relations the serving templates range over.
var serveRelations = []string{"r1", "r2", "r3", "r4"}

// A zipf samples ranks 0..n-1 with probability proportional to
// 1/(rank+1)^skew.
type zipf struct {
	cum []float64
}

func newZipf(n int, skew float64) *zipf {
	z := &zipf{cum: make([]float64, n)}
	total := 0.0
	for i := range z.cum {
		total += math.Pow(float64(i+1), -skew)
		z.cum[i] = total
	}
	return z
}

// weight returns the probability of rank i.
func (z *zipf) weight(i int) float64 {
	prev := 0.0
	if i > 0 {
		prev = z.cum[i-1]
	}
	return (z.cum[i] - prev) / z.cum[len(z.cum)-1]
}

// stratified returns n ranks in blocks of stratum: every block holds each
// rank as often as its probability says (largest remainders make up the
// rounding), in an order shuffled by rng. The mix is the zipf mix, but its
// composition over any stretch of a phase no longer depends on the seed — an
// expensive template is exactly as frequent in one run as in the next.
func (z *zipf) stratified(rng *rand.Rand, n int) []int {
	const stratum = 100
	count := make([]int, len(z.cum))
	type rem struct {
		rank int
		frac float64
	}
	var rems []rem
	total := 0
	for i := range count {
		exact := z.weight(i) * stratum
		count[i] = int(exact)
		total += count[i]
		rems = append(rems, rem{i, exact - float64(count[i])})
	}
	sort.SliceStable(rems, func(a, b int) bool { return rems[a].frac > rems[b].frac })
	for i := 0; total < stratum; i, total = i+1, total+1 {
		count[rems[i%len(rems)].rank]++
	}
	block := make([]int, 0, stratum)
	for rank, c := range count {
		for ; c > 0; c-- {
			block = append(block, rank)
		}
	}
	out := make([]int, 0, n+stratum)
	for len(out) < n {
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		out = append(out, block...)
	}
	return out[:n]
}

// sample draws one rank.
func (z *zipf) sample(rng *rand.Rand) int {
	x := rng.Float64() * z.cum[len(z.cum)-1]
	lo, hi := 0, len(z.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if x < z.cum[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// isIdentByte reports whether c may appear inside an identifier of the query
// syntax.
func isIdentByte(c byte) bool {
	return c == '_' || c >= '0' && c <= '9' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

// eachToken walks src and calls word for every identifier — telling whether
// it is a variable, i.e. starts with an upper-case letter or '_' — and other
// for every byte between identifiers. Only ASCII query texts without quoted
// constants are supported — all the bench generates.
func eachToken(src string, word func(w string, isVar bool), other func(c byte)) {
	for i := 0; i < len(src); {
		c := src[i]
		if !isIdentByte(c) {
			other(c)
			i++
			continue
		}
		j := i
		for j < len(src) && isIdentByte(src[j]) {
			j++
		}
		word(src[i:j], c == '_' || c >= 'A' && c <= 'Z')
		i = j
	}
}

// renameVars α-renames src: every variable becomes V<salt>_<i>, i counting
// variables by first occurrence. The result has the same canonical form, so
// every request can carry fresh names and still share one plan-cache slot.
func renameVars(src string, salt int) string {
	var b strings.Builder
	b.Grow(len(src) + 32)
	index := map[string]int{}
	eachToken(src, func(w string, isVar bool) {
		if !isVar {
			b.WriteString(w)
			return
		}
		id, ok := index[w]
		if !ok {
			id = len(index)
			index[w] = id
		}
		fmt.Fprintf(&b, "V%d_%d", salt, id)
	}, func(c byte) { b.WriteByte(c) })
	return b.String()
}

// templateVars lists the variables of src in renameVars's numbering, so a
// reply's column V<salt>_<i> can be read back as the template's i-th variable.
func templateVars(src string) []string {
	var out []string
	seen := map[string]bool{}
	eachToken(src, func(w string, isVar bool) {
		if isVar && !seen[w] {
			seen[w] = true
			out = append(out, w)
		}
	}, func(byte) {})
	return out
}

// The plan_churn pool: query shapes as bench-owned texts.

func atomsJoin(atoms []string) string { return strings.Join(atoms, ", ") }

func cycleSrc(n int) string {
	var atoms []string
	for i := 1; i <= n; i++ {
		atoms = append(atoms, fmt.Sprintf("r%d(X%d, X%d)", i, i, i%n+1))
	}
	return atomsJoin(atoms)
}

func pathSrc(n int) string {
	var atoms []string
	for i := 1; i <= n; i++ {
		atoms = append(atoms, fmt.Sprintf("r%d(X%d, X%d)", i, i, i+1))
	}
	return atomsJoin(atoms)
}

func starSrc(n int) string {
	var atoms []string
	for i := 1; i <= n; i++ {
		atoms = append(atoms, fmt.Sprintf("r%d(C, X%d)", i, i))
	}
	return atomsJoin(atoms)
}

func gridSrc(rows, cols int) string {
	var atoms []string
	id := 0
	v := func(r, c int) string { return fmt.Sprintf("X%d_%d", r, c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				atoms = append(atoms, fmt.Sprintf("h%d(%s, %s)", id, v(r, c), v(r, c+1)))
				id++
			}
			if r+1 < rows {
				atoms = append(atoms, fmt.Sprintf("v%d(%s, %s)", id, v(r, c), v(r+1, c)))
				id++
			}
		}
	}
	return atomsJoin(atoms)
}

func cliqueSrc(n int) string {
	var atoms []string
	id := 0
	for i := 1; i <= n; i++ {
		for j := i + 1; j <= n; j++ {
			atoms = append(atoms, fmt.Sprintf("e%d(X%d, X%d)", id, i, j))
			id++
		}
	}
	return atomsJoin(atoms)
}

// classCnSrc is the query Q_n of Theorem 6.2: n atoms over one predicate
// sharing X1..Xn.
func classCnSrc(n int) string {
	xs := make([]string, n)
	for i := range xs {
		xs[i] = fmt.Sprintf("X%d", i+1)
	}
	var atoms []string
	for j := 1; j <= n; j++ {
		atoms = append(atoms, fmt.Sprintf("q(%s, Y%d)", strings.Join(xs, ", "), j))
	}
	return atomsJoin(atoms)
}

func randomQuerySrc(rng *rand.Rand, nv, ne, maxArity int) string {
	var atoms []string
	for e := 0; e < ne; e++ {
		args := make([]string, 1+rng.Intn(maxArity))
		for i := range args {
			args[i] = fmt.Sprintf("X%d", rng.Intn(nv))
		}
		atoms = append(atoms, fmt.Sprintf("p%d(%s)", e, strings.Join(args, ", ")))
	}
	return atomsJoin(atoms)
}

// randomCSPSrc is a connected cyclic constraint network: an nv-cycle backbone
// plus ne-nv random constraints of arity 2..maxArity.
func randomCSPSrc(rng *rand.Rand, nv, ne, maxArity int) string {
	var atoms []string
	for i := 1; i <= nv; i++ {
		atoms = append(atoms, fmt.Sprintf("c%d(X%d, X%d)", i, i, i%nv+1))
	}
	for e := nv; e < ne; e++ {
		args := make([]string, 2+rng.Intn(maxArity-1))
		for i := range args {
			args[i] = fmt.Sprintf("X%d", 1+rng.Intn(nv))
		}
		atoms = append(atoms, fmt.Sprintf("p%d(%s)", e, strings.Join(args, ", ")))
	}
	return atomsJoin(atoms)
}

// The paper's example queries (Examples 1.1, 2.1, 3.2, 3.5) and the
// cost-separation query of hdbench E25.
var paperQueries = []template{
	{"Q1", `enrolled(S, C, R), teaches(P, C, A), parent(P, S)`},
	{"Q2", `teaches(P, C, A), enrolled(S, C2, R), parent(P, S)`},
	{"Q3", `r(Y, Z), g(X, Y), s1(Y, Z, U), s2(Z, U, W), t1(Y, Z), t2(Z, U)`},
	{"Q4", `s1(Y, Z, U), g(X, Y), t1(Z, X), s2(Z, W, X), t2(Y, Z)`},
	{"Q5", `a(S, X, X1, C, F), b(S, Y, Y1, C1, F1), c(C, C1, Z), d(X, Z), e(Y, Z), f(F, F1, Z1), g(X1, Z1), h(Y1, Z1), j(J, X, Y, X1, Y1)`},
	{"E25", `big(X1, X2), c2(X2, X3), c3(X3, X4), c4(X4, X1), small(X1, X2)`},
}

// poolSeed seeds the parts of the plan_churn pool that are drawn once.
const poolSeed = 1999

// planShapes returns the 243 query shapes of plan_churn. The pool is the same
// for every seed — the 150 random queries and 50 random cyclic CSPs are drawn
// once, from a fixed seed of their own, like templates written out by hand —
// so that how hard the pool is to decompose is not part of the run-to-run
// spread; -seed decides which keys each op of a run asks for.
func planShapes() []template {
	rng := rand.New(rand.NewSource(poolSeed))
	var out []template
	add := func(name, src string) { out = append(out, template{name, src}) }
	for n := 3; n <= 14; n++ {
		add(fmt.Sprintf("cycle%d", n), cycleSrc(n))
	}
	for n := 3; n <= 10; n++ {
		add(fmt.Sprintf("path%d", n), pathSrc(n))
	}
	for n := 3; n <= 8; n++ {
		add(fmt.Sprintf("star%d", n), starSrc(n))
	}
	for _, g := range [][2]int{{2, 3}, {3, 3}, {3, 4}, {4, 4}} {
		add(fmt.Sprintf("grid%dx%d", g[0], g[1]), gridSrc(g[0], g[1]))
	}
	for n := 4; n <= 6; n++ {
		add(fmt.Sprintf("clique%d", n), cliqueSrc(n))
	}
	for n := 3; n <= 6; n++ {
		add(fmt.Sprintf("classC%d", n), classCnSrc(n))
	}
	out = append(out, paperQueries...)
	for i := 0; i < 150; i++ {
		nv := 4 + rng.Intn(5)
		ne := 5 + rng.Intn(7)
		add(fmt.Sprintf("rand%d", i), randomQuerySrc(rng, nv, ne, 3))
	}
	for i := 0; i < 50; i++ {
		nv := 5 + rng.Intn(5)
		add(fmt.Sprintf("csp%d", i), randomCSPSrc(rng, nv, nv+2+rng.Intn(5), 3))
	}
	return out
}

// splitAtoms cuts a headless query body at its top-level commas.
func splitAtoms(src string) []string {
	var atoms []string
	depth, start := 0, 0
	for i := 0; i < len(src); i++ {
		switch src[i] {
		case '(':
			depth++
		case ')':
			depth--
		case ',':
			if depth == 0 {
				atoms = append(atoms, strings.TrimSpace(src[start:i]))
				start = i + 1
			}
		}
	}
	return append(atoms, strings.TrimSpace(src[start:]))
}

// planKeys expands every shape into three fixed atom orders — as written,
// reversed, and one seeded shuffle — because the plan cache's key is
// rename-invariant but not reorder-invariant: the orders are distinct keys
// today and would collapse to one if the key ever became reorder-invariant,
// which plancache.hit_ratio then shows. The keys are returned in a shuffle,
// so zipf rank does not follow family — like the pool, the same shuffle for
// every seed: which keys are hot sets the cost of the hit path.
func planKeys(shapes []template) []template {
	rng := rand.New(rand.NewSource(poolSeed + 1))
	var keys []template
	for _, s := range shapes {
		atoms := splitAtoms(s.src)
		rev := make([]string, len(atoms))
		for i, a := range atoms {
			rev[len(atoms)-1-i] = a
		}
		shuf := append([]string(nil), atoms...)
		rng.Shuffle(len(shuf), func(i, j int) { shuf[i], shuf[j] = shuf[j], shuf[i] })
		keys = append(keys,
			template{s.name + "/o0", s.src},
			template{s.name + "/o1", atomsJoin(rev)},
			template{s.name + "/o2", atomsJoin(shuf)})
	}
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	return keys
}

// inputSHA fingerprints everything a workload feeds the program.
func inputSHA(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%d:", len(p))
		h.Write([]byte(p))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// templateTexts flattens a pool for inputSHA.
func templateTexts(pool []template) string {
	var b strings.Builder
	for _, t := range pool {
		b.WriteString(t.name)
		b.WriteByte('=')
		b.WriteString(t.src)
		b.WriteByte('\n')
	}
	return b.String()
}
