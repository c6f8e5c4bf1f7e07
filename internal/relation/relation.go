// Package relation provides the relational substrate for query evaluation:
// databases of named relations over an interned constant dictionary, and
// tables over query variables with the operations evaluation needs
// (binding, projection, natural join), and the sorted columnar layout the
// leapfrog join and the answer cursor read as tries.
//
// Values are int32 indices into the database dictionary, tuples are stored
// flat (row-major) for locality, and all operations use set semantics, as in
// the paper's relational model (Section 2.1). A relation deduplicates its
// tuples, and Project, Join and Equal key their rows, through one
// pointer-free open-addressed index of row numbers over the flat rows
// (rowIndex), so a stored tuple costs its values plus 8 to 16 bytes of
// index, and a Clone copies two slices per relation. The dictionary keeps
// its own copy of every constant and relation name, never a substring of
// the text they were parsed from. Each relation also keeps the sorted
// encodings evaluation binds it into (Database.Encoded).
package relation

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"unicode"
)

// Value is an interned constant.
type Value = int32

// Database holds relations and the constant dictionary: dict interns a
// constant, names spells a Value back.
type Database struct {
	dict   map[string]Value
	names  []string
	rels   map[string]*Relation
	order  []string       // relation insertion order, for deterministic iteration
	counts *encodedCounts // Encoded's hits and misses, shared by every Clone
}

// encodedCounts are the hit and miss totals of Database.Encoded.
type encodedCounts struct{ hits, misses atomic.Uint64 }

// NewDatabase returns an empty database.
func NewDatabase() *Database {
	return &Database{dict: map[string]Value{}, rels: map[string]*Relation{}, counts: new(encodedCounts)}
}

// Encoded returns the encoding of the named relation that key identifies,
// and whether the relation's cache served it; on a miss it calls build and
// caches the result. key must determine the encoding from the relation's
// tuples alone, so every plan over db shares the entry, and a hit
// allocates nothing. An entry stands while its relation keeps the row count
// it was built at: relations only grow, so the count pins the content. An
// absent relation is built on every call, never stored, not counted. Builds
// run outside the lock; of two racing builds of one key the last is kept.
func (db *Database) Encoded(name, key string, build func() (*Columnar, error)) (*Columnar, bool, error) {
	r := db.rels[name]
	if r == nil {
		enc, err := build()
		return enc, false, err
	}
	rows := r.Rows()
	r.encMu.Lock()
	e, ok := r.encodings[key]
	r.encMu.Unlock()
	if ok && e.rows == rows {
		db.counts.hits.Add(1)
		return e.enc, true, nil
	}
	db.counts.misses.Add(1)
	enc, err := build()
	if err != nil {
		return nil, false, err
	}
	r.encMu.Lock()
	if r.encodings == nil {
		r.encodings = map[string]encoded{}
	}
	r.encodings[key] = encoded{enc: enc, rows: rows}
	r.encMu.Unlock()
	return enc, false, nil
}

// EncodedCounts returns Encoded's hit and miss totals. Every Clone shares
// the counters of the database it was cloned from, so they are monotonic
// across the snapshots of one lineage and independent of any other
// NewDatabase.
func (db *Database) EncodedCounts() (hits, misses uint64) {
	return db.counts.hits.Load(), db.counts.misses.Load()
}

// Intern returns the Value for a constant, creating it if needed. A new
// constant is stored as a copy of s, so s may point into a larger text the
// database must not keep alive.
func (db *Database) Intern(s string) Value {
	if v, ok := db.dict[s]; ok {
		return v
	}
	s = strings.Clone(s)
	v := Value(len(db.names))
	db.names = append(db.names, s)
	db.dict[s] = v
	return v
}

// Lookup returns the Value of a constant if it exists.
func (db *Database) Lookup(s string) (Value, bool) {
	v, ok := db.dict[s]
	return v, ok
}

// ValueName returns the constant spelled by v.
func (db *Database) ValueName(v Value) string { return db.names[v] }

// UniverseSize returns the number of interned constants.
func (db *Database) UniverseSize() int { return len(db.names) }

// Relation returns the named relation, or nil.
func (db *Database) Relation(name string) *Relation { return db.rels[name] }

// RelationNames returns the relation names in insertion order.
func (db *Database) RelationNames() []string { return db.order }

// AddRelation creates (or returns) the named relation with the given arity.
// A new relation's name is stored as a copy of name.
func (db *Database) AddRelation(name string, arity int) (*Relation, error) {
	if r, ok := db.rels[name]; ok {
		if r.Arity != arity {
			return nil, fmt.Errorf("relation: %s has arity %d, not %d", name, r.Arity, arity)
		}
		return r, nil
	}
	name = strings.Clone(name)
	r := &Relation{Name: name, Arity: arity}
	db.rels[name] = r
	db.order = append(db.order, name)
	return r, nil
}

// AddFact inserts the ground atom name(args...), creating the relation on
// first use.
func (db *Database) AddFact(name string, args ...string) error {
	_, err := db.addFact(name, args, nil)
	return err
}

// addFact is AddFact interning the arguments into vals, which it returns
// for the next fact to reuse.
func (db *Database) addFact(name string, args []string, vals []Value) ([]Value, error) {
	r, err := db.AddRelation(name, len(args))
	if err != nil {
		return vals, err
	}
	vals = vals[:0]
	for _, a := range args {
		vals = append(vals, db.Intern(a))
	}
	r.Add(vals...)
	return vals, nil
}

// Clone returns a deep, fully-independent copy of db: the constant
// dictionary, relation schema and every tuple are copied, and Values keep
// their meaning (the dictionary copy preserves indices). A relation's copy
// is two slice copies, its rows and their index; its encodings start
// empty, and only Encoded's counters are shared. A Clone may intern and
// ingest freely while readers keep using db, which is what lets a serving
// daemon apply mutations off to the side and publish the result with an
// atomic pointer swap.
func (db *Database) Clone() *Database {
	out := &Database{
		dict:   maps.Clone(db.dict),
		names:  slices.Clone(db.names),
		rels:   make(map[string]*Relation, len(db.rels)),
		order:  slices.Clone(db.order),
		counts: db.counts,
	}
	for name, r := range db.rels {
		out.rels[name] = &Relation{Name: r.Name, Arity: r.Arity, data: slices.Clone(r.data), index: r.index.clone()}
	}
	return out
}

// MaxRelationSize returns max tuples over all relations (the paper's r).
func (db *Database) MaxRelationSize() int {
	m := 0
	for _, r := range db.rels {
		if r.Rows() > m {
			m = r.Rows()
		}
	}
	return m
}

// ParseFacts loads ground atoms, one per line, in the syntax
// "rel(a, b, c)." ('%' and '#' comments, blank lines and the trailing period
// are allowed). A relation name must be an identifier starting with a letter
// or '_', as a query atom's predicate must, and no argument may be empty:
// either would load facts no query can read, so both are rejected with the
// line number. The text is read line by line in place, and the database
// keeps none of it.
func (db *Database) ParseFacts(src string) error {
	var args []string
	var vals []Value
	ln := 0
	for line := range strings.Lines(src) {
		ln++
		line = strings.TrimSpace(line)
		if i := strings.IndexAny(line, "%#"); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		for line != "" {
			open := strings.IndexByte(line, '(')
			closeIdx := strings.IndexByte(line, ')')
			if open <= 0 || closeIdx < open {
				return fmt.Errorf("relation: line %d: cannot parse fact %q", ln, line)
			}
			name := strings.TrimSpace(line[:open])
			if !isIdent(name) {
				return fmt.Errorf("relation: line %d: relation name %q is not an identifier", ln, name)
			}
			inner := line[open+1 : closeIdx]
			args = args[:0]
			if strings.TrimSpace(inner) != "" {
				for rest, more := inner, true; more; {
					var a string
					a, rest, more = strings.Cut(rest, ",")
					if a = strings.TrimSpace(a); a == "" {
						return fmt.Errorf("relation: line %d: empty argument in %s(%s)", ln, name, inner)
					}
					args = append(args, a)
				}
			}
			var err error
			if vals, err = db.addFact(name, args, vals); err != nil {
				return fmt.Errorf("relation: line %d: %v", ln, err)
			}
			line = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(line[closeIdx+1:]), "."))
		}
	}
	return nil
}

// isIdent reports whether s is a letter or underscore followed by letters,
// digits, underscores and apostrophes — a predicate name the query parser
// accepts, read byte by byte as it reads one.
func isIdent(s string) bool {
	for i := 0; i < len(s); i++ {
		r := rune(s[i])
		if !unicode.IsLetter(r) && r != '_' && (i == 0 || !unicode.IsDigit(r) && r != '\'') {
			return false
		}
	}
	return s != ""
}

// Relation is a set of tuples of fixed arity, stored row-major and
// deduplicated through an index of their row numbers, with the encodings
// Database.Encoded has built of it.
type Relation struct {
	Name  string
	Arity int
	data  []Value
	index rowIndex // data's rows; index.n is Rows()

	encMu     sync.Mutex
	encodings map[string]encoded
}

// encoded is one cached encoding and the row count it was built at.
type encoded struct {
	enc  *Columnar
	rows int
}

// Rows returns the number of tuples.
func (r *Relation) Rows() int { return r.index.n }

// Encodings returns the number of encodings cached on r (Database.Encoded).
func (r *Relation) Encodings() int {
	r.encMu.Lock()
	defer r.encMu.Unlock()
	return len(r.encodings)
}

// Row returns the i-th tuple (not to be mutated).
func (r *Relation) Row(i int) []Value { return r.data[i*r.Arity : (i+1)*r.Arity] }

// Add inserts a tuple; duplicates are ignored.
func (r *Relation) Add(vals ...Value) {
	if len(vals) != r.Arity {
		panic(fmt.Sprintf("relation: %s expects arity %d, got %d", r.Name, r.Arity, len(vals)))
	}
	r.data, _ = r.index.add(r.data, r.Arity, vals)
}

// Has reports whether the relation already holds the tuple.
func (r *Relation) Has(vals ...Value) bool {
	if len(vals) != r.Arity {
		return false
	}
	_, row := r.index.find(r.data, r.Arity, vals)
	return row >= 0
}

// String renders the relation as facts, sorted, for tests and tools.
func (r *Relation) StringWith(db *Database) string {
	var rows []string
	for i := 0; i < r.Rows(); i++ {
		row := r.Row(i)
		parts := make([]string, len(row))
		for j, v := range row {
			parts[j] = db.ValueName(v)
		}
		rows = append(rows, fmt.Sprintf("%s(%s).", r.Name, strings.Join(parts, ",")))
	}
	sort.Strings(rows)
	return strings.Join(rows, "\n")
}
