package expr

import (
	"fmt"

	"repro/internal/catalog"
	"repro/internal/value"
)

// Prog is an expression compiled to a flat postfix program over resolved
// column offsets, and the only way an expression is evaluated: one
// instruction array walked with a reused value stack, no per-node
// dynamic calls, no captured environments for the GC to scan.
// Short-circuit AND/OR compile to conditional jumps, so a term after the
// one that decides a connective is never evaluated. The package's tests
// hold it equal to a tree-walking reference evaluator.
//
// A Prog reuses its evaluation stack across calls and is therefore not
// safe for concurrent use; compile one per goroutine (track plans are
// per-maintainer, which already satisfies this).
type Prog struct {
	code   []instr
	consts []value.Value
	cmps   []CmpOp
	stack  []value.Value
}

type opcode uint8

const (
	opCol      opcode = iota // push t[a]
	opConst                  // push consts[a]
	opCmp                    // pop r,l; push cmpValues(cmps[a], l, r)
	opArith                  // pop r,l; push arithValues(ArithOp(a), l, r)
	opNot                    // pop v; push !v.Truth()
	opJmpFalse               // pop v; if !v.Truth() jump to a
	opJmpTrue                // pop v; if v.Truth() jump to a
	opJmp                    // jump to a
)

type instr struct {
	op opcode
	a  int32
}

// CompileProg compiles e against schema s. It compiles every node kind
// in this package, so its only error is a column that fails to resolve.
func CompileProg(e Expr, s *catalog.Schema) (*Prog, error) {
	p := &Prog{}
	if err := p.compile(e, s); err != nil {
		return nil, err
	}
	return p, nil
}

func (p *Prog) emit(op opcode, a int32) int {
	p.code = append(p.code, instr{op: op, a: a})
	return len(p.code) - 1
}

func (p *Prog) patch(at int) { p.code[at].a = int32(len(p.code)) }

func (p *Prog) pushConst(v value.Value) {
	p.consts = append(p.consts, v)
	p.emit(opConst, int32(len(p.consts)-1))
}

func (p *Prog) compile(e Expr, s *catalog.Schema) error {
	switch v := e.(type) {
	case Col:
		i, err := s.Resolve(v.Name)
		if err != nil {
			return err
		}
		p.emit(opCol, int32(i))
	case Lit:
		p.pushConst(v.V)
	case Cmp:
		if err := p.compile(v.L, s); err != nil {
			return err
		}
		if err := p.compile(v.R, s); err != nil {
			return err
		}
		p.cmps = append(p.cmps, v.Op)
		p.emit(opCmp, int32(len(p.cmps)-1))
	case Arith:
		if err := p.compile(v.L, s); err != nil {
			return err
		}
		if err := p.compile(v.R, s); err != nil {
			return err
		}
		p.emit(opArith, int32(v.Op))
	case And:
		// term1; jmpFalse F; term2; jmpFalse F; ...; push true; jmp E;
		// F: push false; E:
		var falses []int
		for _, term := range v.Terms {
			if err := p.compile(term, s); err != nil {
				return err
			}
			falses = append(falses, p.emit(opJmpFalse, 0))
		}
		p.pushConst(value.NewBool(true))
		end := p.emit(opJmp, 0)
		for _, at := range falses {
			p.patch(at)
		}
		p.pushConst(value.NewBool(false))
		p.patch(end)
	case Or:
		// l; jmpTrue T; r; jmpTrue T; push false; jmp E; T: push true; E:
		if err := p.compile(v.L, s); err != nil {
			return err
		}
		t1 := p.emit(opJmpTrue, 0)
		if err := p.compile(v.R, s); err != nil {
			return err
		}
		t2 := p.emit(opJmpTrue, 0)
		p.pushConst(value.NewBool(false))
		end := p.emit(opJmp, 0)
		p.patch(t1)
		p.patch(t2)
		p.pushConst(value.NewBool(true))
		p.patch(end)
	case Not:
		if err := p.compile(v.E, s); err != nil {
			return err
		}
		p.emit(opNot, 0)
	default:
		return fmt.Errorf("expr: no flat compilation for %T", e)
	}
	return nil
}

// Eval runs the program against t.
func (p *Prog) Eval(t value.Tuple) value.Value {
	st := p.stack[:0]
	code := p.code
	for pc := 0; pc < len(code); pc++ {
		in := code[pc]
		switch in.op {
		case opCol:
			st = append(st, t[in.a])
		case opConst:
			st = append(st, p.consts[in.a])
		case opCmp:
			r := st[len(st)-1]
			st = st[:len(st)-1]
			st[len(st)-1] = cmpValues(p.cmps[in.a], st[len(st)-1], r)
		case opArith:
			r := st[len(st)-1]
			st = st[:len(st)-1]
			st[len(st)-1] = arithValues(ArithOp(in.a), st[len(st)-1], r)
		case opNot:
			st[len(st)-1] = value.NewBool(!st[len(st)-1].Truth())
		case opJmpFalse:
			v := st[len(st)-1]
			st = st[:len(st)-1]
			if !v.Truth() {
				pc = int(in.a) - 1
			}
		case opJmpTrue:
			v := st[len(st)-1]
			st = st[:len(st)-1]
			if v.Truth() {
				pc = int(in.a) - 1
			}
		case opJmp:
			pc = int(in.a) - 1
		}
	}
	p.stack = st
	return st[len(st)-1]
}

// Truth evaluates the program in predicate position.
func (p *Prog) Truth(t value.Tuple) bool { return p.Eval(t).Truth() }
