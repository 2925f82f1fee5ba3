// Expression mini-language for dependent parameter ranges (§4.2.2 of the
// paper). The RAG extractor emits range bounds either as integer literals or
// as expressions over system facts and other parameters, e.g.
//
//	memory_mb / 2
//	llite.max_read_ahead_mb / 2
//	mdc.max_rpcs_in_flight - 1
//	ost_count
//
// which the online tuner evaluates against live system values.
package params

import (
	"fmt"
	"strconv"
	"strings"
)

// Env supplies identifier values during expression evaluation. Identifiers
// may contain dots (parameter names) or be bare system facts such as
// memory_mb or ost_count.
type Env map[string]int64

// Expr is a parsed range expression.
type Expr struct {
	root node
	src  string
}

// String returns the original source text.
func (e *Expr) String() string { return e.src }

type node interface {
	eval(Env) (int64, error)
}

type numNode int64

func (n numNode) eval(Env) (int64, error) { return int64(n), nil }

type identNode string

func (n identNode) eval(env Env) (int64, error) {
	v, ok := env[string(n)]
	if !ok {
		return 0, fmt.Errorf("params: unknown identifier %q in range expression", string(n))
	}
	return v, nil
}

type binNode struct {
	op   byte
	l, r node
}

func (n binNode) eval(env Env) (int64, error) {
	l, err := n.l.eval(env)
	if err != nil {
		return 0, err
	}
	r, err := n.r.eval(env)
	if err != nil {
		return 0, err
	}
	switch n.op {
	case '+':
		return l + r, nil
	case '-':
		return l - r, nil
	case '*':
		return l * r, nil
	case '/':
		if r == 0 {
			return 0, fmt.Errorf("params: division by zero in range expression")
		}
		return l / r, nil
	}
	return 0, fmt.Errorf("params: bad operator %q", n.op)
}

type exprParser struct {
	toks []string
	pos  int
}

// ParseExpr parses an arithmetic expression with +, -, *, /, parentheses,
// integer literals (with optional K/M/G suffix) and dotted identifiers.
func ParseExpr(src string) (*Expr, error) {
	toks, err := lexExpr(src)
	if err != nil {
		return nil, err
	}
	if len(toks) == 0 {
		return nil, fmt.Errorf("params: empty expression")
	}
	p := &exprParser{toks: toks}
	root, err := p.parseSum()
	if err != nil {
		return nil, err
	}
	if p.pos != len(p.toks) {
		return nil, fmt.Errorf("params: trailing tokens in expression %q", src)
	}
	return &Expr{root: root, src: src}, nil
}

// Eval computes the expression value under env.
func (e *Expr) Eval(env Env) (int64, error) { return e.root.eval(env) }

func lexExpr(src string) ([]string, error) {
	var toks []string
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t':
			i++
		case c == '+' || c == '-' || c == '*' || c == '/' || c == '(' || c == ')':
			toks = append(toks, string(c))
			i++
		case c >= '0' && c <= '9':
			j := i
			for j < len(src) && src[j] >= '0' && src[j] <= '9' {
				j++
			}
			// Optional size suffix.
			if j < len(src) {
				switch src[j] {
				case 'K', 'k', 'M', 'm', 'G', 'g':
					j++
				}
			}
			toks = append(toks, src[i:j])
			i = j
		case isIdentStart(c):
			j := i
			for j < len(src) && isIdentChar(src[j]) {
				j++
			}
			toks = append(toks, src[i:j])
			i = j
		default:
			return nil, fmt.Errorf("params: bad character %q in expression %q", c, src)
		}
	}
	return toks, nil
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentChar(c byte) bool {
	return isIdentStart(c) || c == '.' || (c >= '0' && c <= '9')
}

func (p *exprParser) next() (string, bool) {
	if p.pos >= len(p.toks) {
		return "", false
	}
	t := p.toks[p.pos]
	p.pos++
	return t, true
}

func (p *exprParser) peek() string {
	if p.pos >= len(p.toks) {
		return ""
	}
	return p.toks[p.pos]
}

func (p *exprParser) parseSum() (node, error) {
	l, err := p.parseProduct()
	if err != nil {
		return nil, err
	}
	for {
		op := p.peek()
		if op != "+" && op != "-" {
			return l, nil
		}
		p.pos++
		r, err := p.parseProduct()
		if err != nil {
			return nil, err
		}
		l = binNode{op: op[0], l: l, r: r}
	}
}

func (p *exprParser) parseProduct() (node, error) {
	l, err := p.parseAtom()
	if err != nil {
		return nil, err
	}
	for {
		op := p.peek()
		if op != "*" && op != "/" {
			return l, nil
		}
		p.pos++
		r, err := p.parseAtom()
		if err != nil {
			return nil, err
		}
		l = binNode{op: op[0], l: l, r: r}
	}
}

func (p *exprParser) parseAtom() (node, error) {
	tok, ok := p.next()
	if !ok {
		return nil, fmt.Errorf("params: unexpected end of expression")
	}
	switch {
	case tok == "(":
		inner, err := p.parseSum()
		if err != nil {
			return nil, err
		}
		if close, _ := p.next(); close != ")" {
			return nil, fmt.Errorf("params: missing closing parenthesis")
		}
		return inner, nil
	case tok == "-":
		inner, err := p.parseAtom()
		if err != nil {
			return nil, err
		}
		return binNode{op: '-', l: numNode(0), r: inner}, nil
	case tok[0] >= '0' && tok[0] <= '9':
		mult := int64(1)
		digits := tok
		switch tok[len(tok)-1] {
		case 'K', 'k':
			mult, digits = 1024, tok[:len(tok)-1]
		case 'M', 'm':
			mult, digits = 1024*1024, tok[:len(tok)-1]
		case 'G', 'g':
			mult, digits = 1024*1024*1024, tok[:len(tok)-1]
		}
		v, err := strconv.ParseInt(digits, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("params: bad number %q", tok)
		}
		return numNode(v * mult), nil
	case isIdentStart(tok[0]):
		return identNode(tok), nil
	}
	return nil, fmt.Errorf("params: unexpected token %q", tok)
}

// EvalBound evaluates a bound that is either a literal integer (as decimal
// text) or an expression. The extractor stores bounds as strings because
// that is how they come out of the manual.
func EvalBound(bound string, env Env) (int64, error) {
	bound = strings.TrimSpace(bound)
	if bound == "" {
		return 0, fmt.Errorf("params: empty bound")
	}
	e, err := ParseExpr(bound)
	if err != nil {
		return 0, err
	}
	return e.Eval(env)
}
