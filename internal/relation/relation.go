// Package relation provides the relational substrate for query evaluation:
// databases of named relations over an interned constant dictionary, and
// tables over query variables with the operations evaluation needs
// (binding, projection, natural join), and the sorted columnar layout the
// leapfrog join and the answer cursor read as tries.
//
// Values are int32 indices into the database dictionary, tuples are stored
// flat (row-major) for locality, and all operations use set semantics, as in
// the paper's relational model (Section 2.1).
package relation

import (
	"fmt"
	"sort"
	"strings"
	"unicode"
)

// Value is an interned constant.
type Value = int32

// Database holds relations and the constant dictionary: dict interns a
// constant, names spells a Value back.
type Database struct {
	dict  map[string]Value
	names []string
	rels  map[string]*Relation
	order []string // relation insertion order, for deterministic iteration
}

// NewDatabase returns an empty database.
func NewDatabase() *Database {
	return &Database{dict: map[string]Value{}, rels: map[string]*Relation{}}
}

// Intern returns the Value for a constant, creating it if needed.
func (db *Database) Intern(s string) Value {
	if v, ok := db.dict[s]; ok {
		return v
	}
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
func (db *Database) AddRelation(name string, arity int) (*Relation, error) {
	if r, ok := db.rels[name]; ok {
		if r.Arity != arity {
			return nil, fmt.Errorf("relation: %s has arity %d, not %d", name, r.Arity, arity)
		}
		return r, nil
	}
	r := &Relation{Name: name, Arity: arity}
	db.rels[name] = r
	db.order = append(db.order, name)
	return r, nil
}

// AddFact inserts the ground atom name(args...), creating the relation on
// first use.
func (db *Database) AddFact(name string, args ...string) error {
	r, err := db.AddRelation(name, len(args))
	if err != nil {
		return err
	}
	vals := make([]Value, len(args))
	for i, a := range args {
		vals[i] = db.Intern(a)
	}
	r.Add(vals...)
	return nil
}

// Clone returns a deep, fully-independent copy of db: the constant
// dictionary, relation schema and every tuple are copied, and Values keep
// their meaning (the dictionary copy preserves indices). A Clone may intern
// and ingest freely while readers keep using db, which is what lets a
// serving daemon apply mutations off to the side and publish the result with
// an atomic pointer swap.
func (db *Database) Clone() *Database {
	out := &Database{
		dict:  make(map[string]Value, len(db.dict)),
		names: append([]string(nil), db.names...),
		rels:  make(map[string]*Relation, len(db.rels)),
		order: append([]string(nil), db.order...),
	}
	for s, v := range db.dict {
		out.dict[s] = v
	}
	for name, r := range db.rels {
		c := &Relation{Name: r.Name, Arity: r.Arity, data: append([]Value(nil), r.data...)}
		if r.index != nil {
			c.index = make(map[string]bool, len(r.index))
			for k, v := range r.index {
				c.index[k] = v
			}
		}
		out.rels[name] = c
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
// line number.
func (db *Database) ParseFacts(src string) error {
	for ln, line := range strings.Split(src, "\n") {
		line = strings.TrimSpace(line)
		if i := strings.IndexAny(line, "%#"); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		for line != "" {
			open := strings.IndexByte(line, '(')
			closeIdx := strings.IndexByte(line, ')')
			if open <= 0 || closeIdx < open {
				return fmt.Errorf("relation: line %d: cannot parse fact %q", ln+1, line)
			}
			name := strings.TrimSpace(line[:open])
			if !isIdent(name) {
				return fmt.Errorf("relation: line %d: relation name %q is not an identifier", ln+1, name)
			}
			inner := line[open+1 : closeIdx]
			var args []string
			if strings.TrimSpace(inner) != "" {
				for _, a := range strings.Split(inner, ",") {
					if a = strings.TrimSpace(a); a == "" {
						return fmt.Errorf("relation: line %d: empty argument in %s(%s)", ln+1, name, inner)
					}
					args = append(args, a)
				}
			}
			if err := db.AddFact(name, args...); err != nil {
				return fmt.Errorf("relation: line %d: %v", ln+1, err)
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

// Relation is a set of tuples of fixed arity, stored row-major.
type Relation struct {
	Name  string
	Arity int
	data  []Value
	index map[string]bool // tuple dedup
}

// Rows returns the number of tuples.
func (r *Relation) Rows() int {
	if r.Arity == 0 {
		if r.index["ε"] {
			return 1
		}
		return 0
	}
	return len(r.data) / r.Arity
}

// Row returns the i-th tuple (not to be mutated).
func (r *Relation) Row(i int) []Value { return r.data[i*r.Arity : (i+1)*r.Arity] }

// Add inserts a tuple; duplicates are ignored.
func (r *Relation) Add(vals ...Value) {
	if len(vals) != r.Arity {
		panic(fmt.Sprintf("relation: %s expects arity %d, got %d", r.Name, r.Arity, len(vals)))
	}
	if r.index == nil {
		r.index = map[string]bool{}
	}
	key := encode(vals)
	if r.Arity == 0 {
		key = "ε"
	}
	if r.index[key] {
		return
	}
	r.index[key] = true
	r.data = append(r.data, vals...)
}

// Has reports whether the relation already holds the tuple.
func (r *Relation) Has(vals ...Value) bool {
	if len(vals) != r.Arity {
		return false
	}
	if r.Arity == 0 {
		return r.index["ε"]
	}
	return r.index[encode(vals)]
}

func encode(vals []Value) string {
	return string(appendVals(make([]byte, 0, len(vals)*4), vals))
}

// appendVals appends the 4-byte little-endian encoding of each value to b.
// Hot dedup loops reuse one buffer and probe maps with string(buf), which
// the compiler keeps allocation-free on lookup.
func appendVals(b []byte, vals []Value) []byte {
	for _, v := range vals {
		b = append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	return b
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
