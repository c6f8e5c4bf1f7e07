// Package datalog implements a small Datalog engine with negation under the
// well-founded semantics (computed by the Van Gelder–Ross–Schlipf
// alternating fixpoint), sufficient to run the Appendix B program of
// Gottlob, Leone & Scarcello (JCSS 2002), which decides k-bounded
// hypertree-width deterministically. The Appendix B program is weakly
// stratified, so its well-founded model is total and coincides with its
// unique stable model.
package datalog

import (
	"fmt"
	"strings"
	"unicode"
)

// Term is a constant or variable. Variables start with an upper-case letter
// or '_' in the parser.
type Term struct {
	Name  string
	IsVar bool
}

// Literal is a possibly negated atom.
type Literal struct {
	Neg  bool
	Pred string
	Args []Term
}

// String renders the literal, with a "not " prefix when negated.
func (l Literal) String() string {
	parts := make([]string, len(l.Args))
	for i, t := range l.Args {
		parts[i] = t.Name
	}
	s := l.Pred + "(" + strings.Join(parts, ",") + ")"
	if l.Neg {
		return "not " + s
	}
	return s
}

// Rule is head :- body. Facts are rules with empty bodies and ground heads.
type Rule struct {
	Head Literal
	Body []Literal
}

// String renders the rule in head :- body form.
func (r Rule) String() string {
	if len(r.Body) == 0 {
		return r.Head.String() + "."
	}
	parts := make([]string, len(r.Body))
	for i, l := range r.Body {
		parts[i] = l.String()
	}
	return r.Head.String() + " :- " + strings.Join(parts, ", ") + "."
}

// Program is a set of rules.
type Program struct {
	Rules []Rule
}

// AddFact appends the ground fact pred(args...).
func (p *Program) AddFact(pred string, args ...string) {
	terms := make([]Term, len(args))
	for i, a := range args {
		terms[i] = Term{Name: a}
	}
	p.Rules = append(p.Rules, Rule{Head: Literal{Pred: pred, Args: terms}})
}

// Validate checks safety: every variable of the head and of every negative
// literal must occur in a positive body literal, and heads must be positive.
func (p *Program) Validate() error {
	for _, r := range p.Rules {
		if r.Head.Neg {
			return fmt.Errorf("datalog: negated head in rule %s", r)
		}
		positive := map[string]bool{}
		for _, l := range r.Body {
			if !l.Neg {
				for _, t := range l.Args {
					if t.IsVar {
						positive[t.Name] = true
					}
				}
			}
		}
		check := func(l Literal) error {
			for _, t := range l.Args {
				if t.IsVar && !positive[t.Name] {
					return fmt.Errorf("datalog: unsafe variable %s in rule %s", t.Name, r)
				}
			}
			return nil
		}
		if err := check(r.Head); err != nil {
			return err
		}
		for _, l := range r.Body {
			if l.Neg {
				if err := check(l); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// Atom is a ground atom.
type Atom struct {
	Pred string
	Args []string
}

func (a Atom) key() string {
	return a.Pred + "(" + strings.Join(a.Args, "\x00") + ")"
}

// String renders the ground atom as pred(arg1,...,argn).
func (a Atom) String() string {
	return a.Pred + "(" + strings.Join(a.Args, ",") + ")"
}

// Interpretation is a set of ground atoms.
type Interpretation struct {
	set    map[string]bool
	byPred map[string][][]string
}

// NewInterpretation returns the empty interpretation.
func NewInterpretation() *Interpretation {
	return &Interpretation{set: map[string]bool{}, byPred: map[string][][]string{}}
}

// Has reports membership of the ground atom.
func (in *Interpretation) Has(a Atom) bool { return in.set[a.key()] }

// Add inserts a ground atom; it reports whether the atom was new.
func (in *Interpretation) Add(a Atom) bool {
	k := a.key()
	if in.set[k] {
		return false
	}
	in.set[k] = true
	in.byPred[a.Pred] = append(in.byPred[a.Pred], a.Args)
	return true
}

// Len returns the number of atoms.
func (in *Interpretation) Len() int { return len(in.set) }

// Tuples returns the argument lists for a predicate (not to be mutated).
func (in *Interpretation) Tuples(pred string) [][]string { return in.byPred[pred] }

// Equal reports whether two interpretations contain the same atoms.
func (in *Interpretation) Equal(other *Interpretation) bool {
	if in.Len() != other.Len() {
		return false
	}
	for k := range in.set {
		if !other.set[k] {
			return false
		}
	}
	return true
}

// leastModel computes the least fixpoint of the program where a negative
// literal "not b" succeeds iff b ∉ assumed. This is the operator A(J) of the
// alternating fixpoint construction.
func (p *Program) leastModel(assumed *Interpretation) *Interpretation {
	in := NewInterpretation()
	for changed := true; changed; {
		changed = false
		for _, r := range p.Rules {
			changed = p.applyRule(r, in, assumed) || changed
		}
	}
	return in
}

// applyRule derives all heads of r under interpretation in, with negatives
// read against assumed. It reports whether anything new was derived.
func (p *Program) applyRule(r Rule, in, assumed *Interpretation) bool {
	derived := false
	var positives, negatives []Literal
	for _, l := range r.Body {
		if l.Neg {
			negatives = append(negatives, l)
		} else {
			positives = append(positives, l)
		}
	}
	var match func(i int, binding map[string]string)
	match = func(i int, binding map[string]string) {
		if i == len(positives) {
			for _, l := range negatives {
				if assumed.Has(ground(l, binding)) {
					return
				}
			}
			if in.Add(ground(Literal{Pred: r.Head.Pred, Args: r.Head.Args}, binding)) {
				derived = true
			}
			return
		}
		l := positives[i]
		for _, tuple := range in.Tuples(l.Pred) {
			if len(tuple) != len(l.Args) {
				continue
			}
			newBinding := binding
			copied := false
			ok := true
			for j, t := range l.Args {
				if !t.IsVar {
					if t.Name != tuple[j] {
						ok = false
						break
					}
					continue
				}
				if v, bound := newBinding[t.Name]; bound {
					if v != tuple[j] {
						ok = false
						break
					}
					continue
				}
				if !copied {
					newBinding = copyBinding(binding)
					copied = true
				}
				newBinding[t.Name] = tuple[j]
			}
			if ok {
				match(i+1, newBinding)
			}
		}
	}
	match(0, map[string]string{})
	return derived
}

func copyBinding(b map[string]string) map[string]string {
	out := make(map[string]string, len(b)+2)
	for k, v := range b {
		out[k] = v
	}
	return out
}

func ground(l Literal, binding map[string]string) Atom {
	args := make([]string, len(l.Args))
	for i, t := range l.Args {
		if t.IsVar {
			args[i] = binding[t.Name]
		} else {
			args[i] = t.Name
		}
	}
	return Atom{Pred: l.Pred, Args: args}
}

// Model is a well-founded model: True holds the well-founded true atoms,
// Possible the atoms not well-founded false (True ⊆ Possible). The model is
// total iff True = Possible.
type Model struct {
	True     *Interpretation
	Possible *Interpretation
}

// Total reports whether the model has no undefined atoms.
func (m *Model) Total() bool { return m.True.Equal(m.Possible) }

// WellFounded computes the well-founded model by the alternating fixpoint:
//
//	U₀ = A(∅), K₀ = A(U₀), U₁ = A(K₀), ...
//
// with K ascending to the true set and U descending to the non-false set.
func (p *Program) WellFounded() (*Model, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	u := p.leastModel(NewInterpretation()) // overestimate
	k := p.leastModel(u)                   // underestimate
	for {
		u2 := p.leastModel(k)
		k2 := p.leastModel(u2)
		if u2.Equal(u) && k2.Equal(k) {
			return &Model{True: k2, Possible: u2}, nil
		}
		u, k = u2, k2
	}
}

// Parse reads a program: one rule or fact per statement, '.' terminated,
// with "not " for negation and '%'/'#' comments. Example:
//
//	reach(X, Y) :- edge(X, Y).
//	reach(X, Z) :- reach(X, Y), edge(Y, Z).
//	blocked(X) :- node(X), not free(X).
func Parse(src string) (*Program, error) {
	p := &Program{}
	// strip comments
	var clean strings.Builder
	for _, line := range strings.Split(src, "\n") {
		if i := strings.IndexAny(line, "%#"); i >= 0 {
			line = line[:i]
		}
		clean.WriteString(line)
		clean.WriteByte('\n')
	}
	for _, stmt := range strings.Split(clean.String(), ".") {
		stmt = strings.TrimSpace(stmt)
		if stmt == "" {
			continue
		}
		rule, err := parseRule(stmt)
		if err != nil {
			return nil, err
		}
		p.Rules = append(p.Rules, rule)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

func parseRule(s string) (Rule, error) {
	headSrc := s
	var bodySrc string
	if i := strings.Index(s, ":-"); i >= 0 {
		headSrc, bodySrc = s[:i], s[i+2:]
	}
	head, rest, err := parseLiteral(strings.TrimSpace(headSrc))
	if err != nil {
		return Rule{}, err
	}
	if rest != "" {
		return Rule{}, fmt.Errorf("datalog: trailing input after head: %q", rest)
	}
	if head.Neg {
		return Rule{}, fmt.Errorf("datalog: negated head in %q", s)
	}
	r := Rule{Head: head}
	bodySrc = strings.TrimSpace(bodySrc)
	for bodySrc != "" {
		lit, rest, err := parseLiteral(bodySrc)
		if err != nil {
			return Rule{}, err
		}
		r.Body = append(r.Body, lit)
		rest = strings.TrimSpace(rest)
		if rest == "" {
			break
		}
		if !strings.HasPrefix(rest, ",") {
			return Rule{}, fmt.Errorf("datalog: expected ',' in body at %q", rest)
		}
		bodySrc = strings.TrimSpace(rest[1:])
		if bodySrc == "" {
			return Rule{}, fmt.Errorf("datalog: dangling ',' in rule %q", s)
		}
	}
	return r, nil
}

func parseLiteral(s string) (Literal, string, error) {
	lit := Literal{}
	if strings.HasPrefix(s, "not ") {
		lit.Neg = true
		s = strings.TrimSpace(s[4:])
	}
	open := strings.IndexByte(s, '(')
	if open <= 0 {
		return lit, "", fmt.Errorf("datalog: cannot parse literal %q", s)
	}
	lit.Pred = strings.TrimSpace(s[:open])
	depth := 1
	i := open + 1
	for ; i < len(s) && depth > 0; i++ {
		switch s[i] {
		case '(':
			depth++
		case ')':
			depth--
		}
	}
	if depth != 0 {
		return lit, "", fmt.Errorf("datalog: unbalanced parentheses in %q", s)
	}
	inner := s[open+1 : i-1]
	if strings.TrimSpace(inner) != "" {
		for _, a := range strings.Split(inner, ",") {
			a = strings.TrimSpace(a)
			if a == "" {
				return lit, "", fmt.Errorf("datalog: empty argument in %q", s)
			}
			r := rune(a[0])
			lit.Args = append(lit.Args, Term{Name: a, IsVar: unicode.IsUpper(r) || r == '_'})
		}
	}
	return lit, s[i:], nil
}
