// Package qasm implements a parser and serializer for the subset of
// OpenQASM 2.0 used by NISQ benchmark kernels: a single quantum register, a
// single classical register, the standard gate mnemonics from the qelib1
// header, measurement, and barriers. Parameter expressions support numeric
// literals, pi, unary minus, and the binary operators + - * /, which covers
// every benchmark in the literature this repository reproduces.
//
// Beyond the OpenQASM 2.0 numeric forms, parameter expressions may use
// free identifiers as symbolic parameters — rz(theta), u3(2*a, b, 0.5) —
// restricted to affine combinations c*θ + k (package param). ParseParametric
// returns the resulting template; plain Parse reports any leftover free
// symbol as a typed *UnboundSymbolError. An optional dialect statement
// `parameter theta;` declares symbols up front; once any declaration
// appears, undeclared identifiers in later expressions become errors, and
// duplicate declarations are rejected.
package qasm

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"vaq/internal/circuit"
	"vaq/internal/gate"
	"vaq/internal/param"
)

// ParseError describes a syntax or semantic error with its line number.
type ParseError struct {
	Line int
	Msg  string
}

func (e *ParseError) Error() string { return fmt.Sprintf("qasm: line %d: %s", e.Line, e.Msg) }

// UnboundSymbolError reports a program that parsed cleanly but still has
// free symbolic parameters, which Parse cannot turn into a concrete
// circuit. Callers wanting the symbolic form use ParseParametric.
type UnboundSymbolError struct {
	Symbols []param.Symbol
}

func (e *UnboundSymbolError) Error() string {
	names := make([]string, len(e.Symbols))
	for i, s := range e.Symbols {
		names[i] = string(s)
	}
	return fmt.Sprintf("qasm: program has unbound symbolic parameters (%s); bind them or use ParseParametric",
		strings.Join(names, ", "))
}

// Parse converts OpenQASM 2.0 source into a Circuit. The program must
// declare exactly one qreg; a creg is optional (required only by measure).
// User gate definitions (`gate name(params) qubits { … }`) are supported
// and expanded at application sites; the primitives `U(a,b,c)` and `CX`
// map to u3 and cx. Programs with free symbolic parameters yield a typed
// *UnboundSymbolError (see ParseParametric).
func Parse(src string) (*circuit.Circuit, error) {
	p, err := parseProgram(src)
	if err != nil {
		return nil, err
	}
	if len(p.exprs) > 0 {
		return nil, &UnboundSymbolError{Symbols: p.parametric().FreeSymbols()}
	}
	return p.c, nil
}

// ParseParametric converts OpenQASM 2.0 source into a parametric circuit
// template: gates whose parameter expressions contain free symbols hold
// placeholder slots to be filled by param.ParametricCircuit.Bind. Fully
// numeric programs parse too, yielding a template with no free symbols.
func ParseParametric(src string) (*param.ParametricCircuit, error) {
	p, err := parseProgram(src)
	if err != nil {
		return nil, err
	}
	return p.parametric(), nil
}

func parseProgram(src string) (*parser, error) {
	cleaned, defs, err := extractGateDefs(src)
	if err != nil {
		return nil, err
	}
	p := &parser{macros: map[string]*macroDef{}, exprs: map[int]param.Expr{}}
	for _, d := range defs {
		if _, dup := p.macros[d.name]; dup {
			return nil, &ParseError{Line: d.defLine, Msg: fmt.Sprintf("gate %q defined twice", d.name)}
		}
		p.macros[d.name] = d
	}
	src = cleaned
	for i, raw := range strings.Split(src, "\n") {
		line := stripComment(raw)
		// A line may hold several ';'-terminated statements.
		for _, stmt := range strings.Split(line, ";") {
			stmt = strings.TrimSpace(stmt)
			if stmt == "" {
				continue
			}
			if err := p.statement(stmt, i+1); err != nil {
				return nil, err
			}
		}
	}
	if p.c == nil {
		return nil, &ParseError{Line: 0, Msg: "no qreg declared"}
	}
	return p, nil
}

// parametric wraps the parsed circuit and its expression table.
func (p *parser) parametric() *param.ParametricCircuit {
	pc := param.New(p.c)
	for i, e := range p.exprs {
		pc.Exprs[i] = e
	}
	return pc
}

func stripComment(s string) string {
	if i := strings.Index(s, "//"); i >= 0 {
		return s[:i]
	}
	return s
}

type parser struct {
	c        *circuit.Circuit
	qregName string
	cregName string
	cregSize int
	macros   map[string]*macroDef
	depth    int                // macro expansion depth guard
	exprs    map[int]param.Expr // gate index → symbolic parameter expression
	declared map[string]int     // declared symbol → declaration line (nil: lenient mode)
}

func (p *parser) statement(s string, line int) error {
	switch {
	case strings.HasPrefix(s, "OPENQASM"), strings.HasPrefix(s, "include"):
		return nil
	case strings.HasPrefix(s, "qreg"):
		return p.declare(s[len("qreg"):], line, true)
	case strings.HasPrefix(s, "creg"):
		return p.declare(s[len("creg"):], line, false)
	case strings.HasPrefix(s, "measure"):
		return p.measure(s[len("measure"):], line)
	case strings.HasPrefix(s, "barrier"):
		return p.barrier(s[len("barrier"):], line)
	case strings.HasPrefix(s, "parameter "):
		return p.declareSymbol(s[len("parameter "):], line)
	default:
		return p.gateApp(s, line)
	}
}

// declareSymbol handles the dialect statement `parameter theta;`.
// Declarations are optional — any free identifier in an expression is
// accepted as a symbol — but once one appears, later expressions may only
// use declared names, and re-declaring a name is an error.
func (p *parser) declareSymbol(rest string, line int) error {
	name := strings.TrimSpace(rest)
	if !symbolIdent(name) {
		return &ParseError{Line: line, Msg: fmt.Sprintf("bad parameter name %q (want [a-z][a-z0-9_]*)", name)}
	}
	if p.declared == nil {
		p.declared = map[string]int{}
	}
	if prev, dup := p.declared[name]; dup {
		return &ParseError{Line: line, Msg: fmt.Sprintf("parameter %q declared twice (first on line %d)", name, prev)}
	}
	p.declared[name] = line
	return nil
}

// symbolIdent reports whether s is a valid symbol name under the
// expression tokenizer: a lowercase letter followed by lowercase
// letters, digits or underscores.
func symbolIdent(s string) bool {
	if s == "" || s[0] < 'a' || s[0] > 'z' {
		return false
	}
	for i := 1; i < len(s); i++ {
		if !identByte(s[i]) {
			return false
		}
	}
	return true
}

func identByte(b byte) bool {
	return b >= 'a' && b <= 'z' || b >= '0' && b <= '9' || b == '_'
}

func (p *parser) declare(rest string, line int, quantum bool) error {
	name, size, err := parseReg(strings.TrimSpace(rest))
	if err != nil {
		return &ParseError{Line: line, Msg: err.Error()}
	}
	if quantum {
		if p.c != nil {
			return &ParseError{Line: line, Msg: "multiple qreg declarations are not supported"}
		}
		p.c = circuit.New(name, size)
		p.qregName = name
		return nil
	}
	if p.cregName != "" {
		return &ParseError{Line: line, Msg: "multiple creg declarations are not supported"}
	}
	p.cregName = name
	p.cregSize = size
	return nil
}

// parseReg parses "name[size]".
func parseReg(s string) (string, int, error) {
	open := strings.Index(s, "[")
	close := strings.Index(s, "]")
	if open <= 0 || close != len(s)-1 {
		return "", 0, fmt.Errorf("malformed register declaration %q", s)
	}
	name := strings.TrimSpace(s[:open])
	size, err := strconv.Atoi(strings.TrimSpace(s[open+1 : close]))
	if err != nil || size <= 0 {
		return "", 0, fmt.Errorf("bad register size in %q", s)
	}
	return name, size, nil
}

func (p *parser) index(ref string, line int, wantReg string) (int, error) {
	ref = strings.TrimSpace(ref)
	open := strings.Index(ref, "[")
	close := strings.Index(ref, "]")
	if open <= 0 || close != len(ref)-1 {
		return 0, &ParseError{Line: line, Msg: fmt.Sprintf("malformed operand %q", ref)}
	}
	name := strings.TrimSpace(ref[:open])
	if name != wantReg {
		return 0, &ParseError{Line: line, Msg: fmt.Sprintf("unknown register %q (want %q)", name, wantReg)}
	}
	idx, err := strconv.Atoi(strings.TrimSpace(ref[open+1 : close]))
	if err != nil || idx < 0 {
		return 0, &ParseError{Line: line, Msg: fmt.Sprintf("bad index in %q", ref)}
	}
	return idx, nil
}

func (p *parser) requireCircuit(line int) error {
	if p.c == nil {
		return &ParseError{Line: line, Msg: "statement before qreg declaration"}
	}
	return nil
}

func (p *parser) measure(rest string, line int) error {
	if err := p.requireCircuit(line); err != nil {
		return err
	}
	parts := strings.Split(rest, "->")
	if len(parts) != 2 {
		return &ParseError{Line: line, Msg: "measure requires 'q[i] -> c[j]'"}
	}
	if p.cregName == "" {
		return &ParseError{Line: line, Msg: "measure without creg declaration"}
	}
	q, err := p.index(parts[0], line, p.qregName)
	if err != nil {
		return err
	}
	cb, err := p.index(parts[1], line, p.cregName)
	if err != nil {
		return err
	}
	if q >= p.c.NumQubits {
		return &ParseError{Line: line, Msg: fmt.Sprintf("qubit %d out of range", q)}
	}
	if cb >= p.cregSize {
		return &ParseError{Line: line, Msg: fmt.Sprintf("classical bit %d out of range", cb)}
	}
	p.c.Measure(q, cb)
	return nil
}

func (p *parser) barrier(rest string, line int) error {
	if err := p.requireCircuit(line); err != nil {
		return err
	}
	rest = strings.TrimSpace(rest)
	if rest == p.qregName || rest == "" {
		p.c.Barrier()
		return nil
	}
	var qs []int
	for _, ref := range strings.Split(rest, ",") {
		q, err := p.index(ref, line, p.qregName)
		if err != nil {
			return err
		}
		qs = append(qs, q)
	}
	p.c.Barrier(qs...)
	return nil
}

func (p *parser) gateApp(s string, line int) error {
	if err := p.requireCircuit(line); err != nil {
		return err
	}
	// Split "name(params) operands" or "name operands".
	head := s
	params := ""
	if open := strings.Index(s, "("); open >= 0 {
		// Find the matching close paren (parameter expressions may nest).
		depth, close := 0, -1
		for i := open; i < len(s); i++ {
			switch s[i] {
			case '(':
				depth++
			case ')':
				depth--
				if depth == 0 {
					close = i
				}
			}
			if close >= 0 {
				break
			}
		}
		if close < 0 {
			return &ParseError{Line: line, Msg: "unbalanced parentheses"}
		}
		head = strings.TrimSpace(s[:open])
		params = s[open+1 : close]
		s = head + " " + strings.TrimSpace(s[close+1:])
	}
	fields := strings.SplitN(strings.TrimSpace(s), " ", 2)
	if len(fields) != 2 {
		return &ParseError{Line: line, Msg: fmt.Sprintf("malformed gate application %q", s)}
	}
	name := strings.TrimSpace(fields[0])

	// User-defined gates expand first (definitions may shadow natives).
	if m, isMacro := p.macros[name]; isMacro {
		return p.applyMacro(m, params, fields[1], line)
	}
	// OpenQASM primitives.
	switch name {
	case "U":
		name = "u3"
	case "CX":
		name = "cx"
	}
	k, ok := gate.KindByName(name)
	if !ok || k == gate.Measure || k == gate.Barrier {
		return &ParseError{Line: line, Msg: fmt.Sprintf("unknown gate %q", name)}
	}
	var operands []int
	for _, ref := range strings.Split(fields[1], ",") {
		q, err := p.index(ref, line, p.qregName)
		if err != nil {
			return err
		}
		operands = append(operands, q)
	}
	if k.Arity() != len(operands) {
		return &ParseError{Line: line, Msg: fmt.Sprintf("%s expects %d operands, got %d", name, k.Arity(), len(operands))}
	}
	g := circuit.Gate{Kind: k, Qubits: operands, CBit: -1}
	var sym param.Expr
	symbolic := false
	if k.Parameterized() {
		if params == "" {
			return &ParseError{Line: line, Msg: fmt.Sprintf("%s requires a parameter", name)}
		}
		// Multi-parameter gates (u2, u3) fold parameters by summation; the
		// simulator only needs to know a rotation happened, not the angle.
		// Folding symbolic expressions sums the affine forms the same way.
		total := param.Expr{}
		for _, expr := range strings.Split(params, ",") {
			e, err := evalSymbolic(expr, p.declared)
			if err != nil {
				return &ParseError{Line: line, Msg: err.Error()}
			}
			total = total.Add(e)
		}
		if total.IsConst() {
			g.Param = total.Const
		} else {
			sym, symbolic = total, true
		}
	} else if params != "" {
		return &ParseError{Line: line, Msg: fmt.Sprintf("%s takes no parameters", name)}
	}
	if err := appendChecked(p.c, g); err != nil {
		return &ParseError{Line: line, Msg: err.Error()}
	}
	if symbolic {
		p.exprs[len(p.c.Gates)-1] = sym
	}
	return nil
}

// applyMacro evaluates the actual parameters, expands the macro body with
// the operands substituted, and feeds the statements back through the
// parser. A depth guard bounds (impossible under define-before-use, but
// cheap) runaway recursion.
func (p *parser) applyMacro(m *macroDef, params, operandStr string, line int) error {
	if p.depth >= 40 {
		return &ParseError{Line: line, Msg: fmt.Sprintf("gate %q expansion too deep", m.name)}
	}
	var vals []param.Expr
	if strings.TrimSpace(params) != "" {
		for _, expr := range strings.Split(params, ",") {
			v, err := evalSymbolic(expr, p.declared)
			if err != nil {
				return &ParseError{Line: line, Msg: err.Error()}
			}
			vals = append(vals, v)
		}
	}
	var operands []string
	for _, o := range strings.Split(operandStr, ",") {
		o = strings.TrimSpace(o)
		if o == "" {
			return &ParseError{Line: line, Msg: fmt.Sprintf("empty operand in %q application", m.name)}
		}
		operands = append(operands, o)
	}
	stmts, err := m.expand(vals, operands, line)
	if err != nil {
		return err
	}
	p.depth++
	defer func() { p.depth-- }()
	for _, st := range stmts {
		if err := p.statement(st, line); err != nil {
			return err
		}
	}
	return nil
}

// appendChecked converts circuit.Append's panic on invalid operands into an
// error so the parser reports line numbers instead of crashing.
func appendChecked(c *circuit.Circuit, g circuit.Gate) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%v", r)
		}
	}()
	c.Append(g)
	return nil
}

// evalSymbolic evaluates a parameter expression to its affine form:
// numbers, pi, free identifiers as symbols, unary minus, and
// left-associative + - * / with standard precedence, restricted to
// affine combinations (a symbol may be scaled by constants but never
// multiplied by another symbol or divided into). declared, when non-nil,
// whitelists the identifiers expressions may use.
func evalSymbolic(expr string, declared map[string]int) (param.Expr, error) {
	toks, err := tokenize(expr)
	if err != nil {
		return param.Expr{}, err
	}
	e := &exprParser{toks: toks, declared: declared}
	v, err := e.parseSum()
	if err != nil {
		return param.Expr{}, err
	}
	if e.pos != len(e.toks) {
		return param.Expr{}, fmt.Errorf("trailing tokens in expression %q", expr)
	}
	return v, nil
}

func tokenize(expr string) ([]string, error) {
	var toks []string
	i := 0
	for i < len(expr) {
		ch := expr[i]
		switch {
		case ch == ' ' || ch == '\t':
			i++
		case strings.ContainsRune("+-*/()", rune(ch)):
			toks = append(toks, string(ch))
			i++
		case ch >= '0' && ch <= '9' || ch == '.':
			j := i
			for j < len(expr) && (expr[j] >= '0' && expr[j] <= '9' || expr[j] == '.' || expr[j] == 'e' ||
				(j > i && (expr[j] == '+' || expr[j] == '-') && expr[j-1] == 'e')) {
				j++
			}
			toks = append(toks, expr[i:j])
			i = j
		case ch >= 'a' && ch <= 'z':
			j := i
			for j < len(expr) && identByte(expr[j]) {
				j++
			}
			toks = append(toks, expr[i:j])
			i = j
		default:
			return nil, fmt.Errorf("unexpected character %q in expression %q", ch, expr)
		}
	}
	return toks, nil
}

type exprParser struct {
	toks     []string
	pos      int
	declared map[string]int
}

func (e *exprParser) peek() string {
	if e.pos < len(e.toks) {
		return e.toks[e.pos]
	}
	return ""
}

func (e *exprParser) parseSum() (param.Expr, error) {
	v, err := e.parseProduct()
	if err != nil {
		return param.Expr{}, err
	}
	for {
		switch e.peek() {
		case "+":
			e.pos++
			r, err := e.parseProduct()
			if err != nil {
				return param.Expr{}, err
			}
			v = v.Add(r)
		case "-":
			e.pos++
			r, err := e.parseProduct()
			if err != nil {
				return param.Expr{}, err
			}
			v = v.Add(r.Neg())
		default:
			return v, nil
		}
	}
}

func (e *exprParser) parseProduct() (param.Expr, error) {
	v, err := e.parseUnary()
	if err != nil {
		return param.Expr{}, err
	}
	for {
		switch e.peek() {
		case "*":
			e.pos++
			r, err := e.parseUnary()
			if err != nil {
				return param.Expr{}, err
			}
			switch {
			case r.IsConst():
				v = v.Scale(r.Const)
			case v.IsConst():
				v = r.Scale(v.Const)
			default:
				return param.Expr{}, fmt.Errorf("nonlinear parameter expression: symbols may only be scaled by constants (c*θ + k)")
			}
		case "/":
			e.pos++
			r, err := e.parseUnary()
			if err != nil {
				return param.Expr{}, err
			}
			if !r.IsConst() {
				return param.Expr{}, fmt.Errorf("division by a symbolic expression is not supported (c*θ + k)")
			}
			if r.Const == 0 {
				return param.Expr{}, fmt.Errorf("division by zero")
			}
			v = v.Scale(1 / r.Const)
		default:
			return v, nil
		}
	}
}

func (e *exprParser) parseUnary() (param.Expr, error) {
	if e.peek() == "-" {
		e.pos++
		v, err := e.parseUnary()
		return v.Neg(), err
	}
	return e.parseAtom()
}

func (e *exprParser) parseAtom() (param.Expr, error) {
	tok := e.peek()
	switch {
	case tok == "":
		return param.Expr{}, fmt.Errorf("unexpected end of expression")
	case tok == "(":
		e.pos++
		v, err := e.parseSum()
		if err != nil {
			return param.Expr{}, err
		}
		if e.peek() != ")" {
			return param.Expr{}, fmt.Errorf("missing closing parenthesis")
		}
		e.pos++
		return v, nil
	case tok == "pi":
		e.pos++
		return param.Const(math.Pi), nil
	case symbolIdent(tok):
		if e.declared != nil {
			if _, ok := e.declared[tok]; !ok {
				return param.Expr{}, fmt.Errorf("undeclared parameter %q (declare with 'parameter %s;')", tok, tok)
			}
		}
		e.pos++
		return param.Sym(param.Symbol(tok)), nil
	default:
		v, err := strconv.ParseFloat(tok, 64)
		if err != nil {
			return param.Expr{}, fmt.Errorf("bad token %q in expression", tok)
		}
		e.pos++
		return param.Const(v), nil
	}
}

// Serialize renders a circuit as OpenQASM 2.0 source.
func Serialize(c *circuit.Circuit) string {
	var b strings.Builder
	b.WriteString("OPENQASM 2.0;\n")
	b.WriteString("include \"qelib1.inc\";\n")
	fmt.Fprintf(&b, "qreg q[%d];\n", c.NumQubits)
	if c.NumCBits > 0 {
		fmt.Fprintf(&b, "creg c[%d];\n", c.NumCBits)
	}
	for _, g := range c.Gates {
		switch {
		case g.Kind == gate.Measure:
			fmt.Fprintf(&b, "measure q[%d] -> c[%d];\n", g.Qubits[0], g.CBit)
		case g.Kind == gate.Barrier:
			refs := make([]string, len(g.Qubits))
			for i, q := range g.Qubits {
				refs[i] = fmt.Sprintf("q[%d]", q)
			}
			fmt.Fprintf(&b, "barrier %s;\n", strings.Join(refs, ","))
		case g.Kind.Parameterized():
			fmt.Fprintf(&b, "%s(%g) q[%d];\n", g.Kind, g.Param, g.Qubits[0])
		case len(g.Qubits) == 2:
			fmt.Fprintf(&b, "%s q[%d],q[%d];\n", g.Kind, g.Qubits[0], g.Qubits[1])
		default:
			fmt.Fprintf(&b, "%s q[%d];\n", g.Kind, g.Qubits[0])
		}
	}
	return b.String()
}
