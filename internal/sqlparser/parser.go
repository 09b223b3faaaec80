package sqlparser

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/value"
)

// Parse parses a semicolon-separated script into statements.
func Parse(input string) ([]Statement, error) {
	toks, err := lex(input)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	var out []Statement
	for !p.at(tkEOF, "") {
		if p.at(tkSymbol, ";") {
			p.next()
			continue
		}
		s, err := p.statement()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
		if p.at(tkSymbol, ";") {
			p.next()
		}
	}
	return out, nil
}

// ParseOne parses exactly one statement.
func ParseOne(input string) (Statement, error) {
	stmts, err := Parse(input)
	if err != nil {
		return nil, err
	}
	if len(stmts) != 1 {
		return nil, fmt.Errorf("sql: expected one statement, got %d", len(stmts))
	}
	return stmts[0], nil
}

type parser struct {
	toks []token
	i    int
}

func (p *parser) cur() token  { return p.toks[p.i] }
func (p *parser) next() token { t := p.toks[p.i]; p.i++; return t }

func (p *parser) at(k tokenKind, text string) bool {
	t := p.cur()
	return t.kind == k && (text == "" || t.text == text)
}

func (p *parser) accept(k tokenKind, text string) bool {
	if p.at(k, text) {
		p.next()
		return true
	}
	return false
}

func (p *parser) expect(k tokenKind, text string) (token, error) {
	if !p.at(k, text) {
		return token{}, fmt.Errorf("sql: at %d: expected %q, found %q", p.cur().pos, text, p.cur().text)
	}
	return p.next(), nil
}

func (p *parser) ident() (string, error) {
	if p.cur().kind != tkIdent {
		return "", fmt.Errorf("sql: at %d: expected identifier, found %q", p.cur().pos, p.cur().text)
	}
	return p.next().text, nil
}

func (p *parser) statement() (Statement, error) {
	switch {
	case p.at(tkKeyword, "CREATE"):
		return p.create()
	case p.at(tkKeyword, "SELECT"):
		return p.selectStmt()
	case p.at(tkKeyword, "INSERT"):
		return p.insert()
	case p.at(tkKeyword, "DELETE"):
		return p.delete()
	case p.at(tkKeyword, "UPDATE"):
		return p.update()
	default:
		return nil, fmt.Errorf("sql: at %d: unexpected %q", p.cur().pos, p.cur().text)
	}
}

func (p *parser) create() (Statement, error) {
	p.next() // CREATE
	switch {
	case p.accept(tkKeyword, "TABLE"):
		return p.createTable()
	case p.accept(tkKeyword, "INDEX"):
		return p.createIndex()
	case p.accept(tkKeyword, "VIEW"):
		return p.createView()
	case p.accept(tkKeyword, "ASSERTION"):
		return p.createAssertion()
	default:
		return nil, fmt.Errorf("sql: at %d: CREATE %q unsupported", p.cur().pos, p.cur().text)
	}
}

func (p *parser) createTable() (Statement, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tkSymbol, "("); err != nil {
		return nil, err
	}
	ct := &CreateTable{Name: name}
	for {
		if p.accept(tkKeyword, "PRIMARY") {
			if _, err := p.expect(tkKeyword, "KEY"); err != nil {
				return nil, err
			}
			cols, err := p.parenIdentList()
			if err != nil {
				return nil, err
			}
			ct.PrimaryKey = cols
		} else {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			kind, err := p.columnType()
			if err != nil {
				return nil, err
			}
			def := ColumnDef{Name: col, Type: kind}
			if p.accept(tkKeyword, "PRIMARY") {
				if _, err := p.expect(tkKeyword, "KEY"); err != nil {
					return nil, err
				}
				def.PrimaryKey = true
			}
			ct.Columns = append(ct.Columns, def)
		}
		if p.accept(tkSymbol, ",") {
			continue
		}
		break
	}
	if _, err := p.expect(tkSymbol, ")"); err != nil {
		return nil, err
	}
	return ct, nil
}

func (p *parser) columnType() (value.Kind, error) {
	t := p.cur()
	if t.kind != tkKeyword {
		return value.Null, fmt.Errorf("sql: at %d: expected type, found %q", t.pos, t.text)
	}
	p.next()
	switch t.text {
	case "INT", "INTEGER":
		return value.Int, nil
	case "FLOAT", "REAL", "DOUBLE":
		return value.Float, nil
	case "VARCHAR", "CHAR", "TEXT":
		// Optional length: VARCHAR(30).
		if p.accept(tkSymbol, "(") {
			if p.cur().kind != tkNumber {
				return value.Null, fmt.Errorf("sql: at %d: expected length", p.cur().pos)
			}
			p.next()
			if _, err := p.expect(tkSymbol, ")"); err != nil {
				return value.Null, err
			}
		}
		return value.String, nil
	case "BOOLEAN", "BOOL":
		return value.Bool, nil
	default:
		return value.Null, fmt.Errorf("sql: at %d: unknown type %q", t.pos, t.text)
	}
}

func (p *parser) parenIdentList() ([]string, error) {
	if _, err := p.expect(tkSymbol, "("); err != nil {
		return nil, err
	}
	var out []string
	for {
		id, err := p.qualifiedName()
		if err != nil {
			return nil, err
		}
		out = append(out, id)
		if !p.accept(tkSymbol, ",") {
			break
		}
	}
	if _, err := p.expect(tkSymbol, ")"); err != nil {
		return nil, err
	}
	return out, nil
}

func (p *parser) createIndex() (Statement, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tkKeyword, "ON"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	cols, err := p.parenIdentList()
	if err != nil {
		return nil, err
	}
	return &CreateIndex{Name: name, Table: table, Columns: cols}, nil
}

func (p *parser) createView() (Statement, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	cv := &CreateView{Name: name}
	if p.at(tkSymbol, "(") {
		cols, err := p.parenIdentList()
		if err != nil {
			return nil, err
		}
		cv.Columns = cols
	}
	if _, err := p.expect(tkKeyword, "AS"); err != nil {
		return nil, err
	}
	sel, err := p.selectStmt()
	if err != nil {
		return nil, err
	}
	cv.Select = sel
	return cv, nil
}

func (p *parser) createAssertion() (Statement, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tkKeyword, "CHECK"); err != nil {
		return nil, err
	}
	if _, err := p.expect(tkSymbol, "("); err != nil {
		return nil, err
	}
	if _, err := p.expect(tkKeyword, "NOT"); err != nil {
		return nil, err
	}
	if _, err := p.expect(tkKeyword, "EXISTS"); err != nil {
		return nil, err
	}
	if _, err := p.expect(tkSymbol, "("); err != nil {
		return nil, err
	}
	sel, err := p.selectStmt()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tkSymbol, ")"); err != nil {
		return nil, err
	}
	if _, err := p.expect(tkSymbol, ")"); err != nil {
		return nil, err
	}
	return &CreateAssertion{Name: name, Select: sel}, nil
}

func (p *parser) selectStmt() (*SelectStmt, error) {
	if _, err := p.expect(tkKeyword, "SELECT"); err != nil {
		return nil, err
	}
	s := &SelectStmt{}
	s.Distinct = p.accept(tkKeyword, "DISTINCT")
	for {
		if p.accept(tkSymbol, "*") {
			s.Items = append(s.Items, SelectItem{Star: true})
		} else {
			e, err := p.scalar()
			if err != nil {
				return nil, err
			}
			item := SelectItem{Expr: e}
			if p.accept(tkKeyword, "AS") {
				as, err := p.ident()
				if err != nil {
					return nil, err
				}
				item.As = as
			} else if p.cur().kind == tkIdent {
				item.As = p.next().text
			}
			s.Items = append(s.Items, item)
		}
		if !p.accept(tkSymbol, ",") {
			break
		}
	}
	if _, err := p.expect(tkKeyword, "FROM"); err != nil {
		return nil, err
	}
	for {
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		ref := TableRef{Name: name, Alias: name}
		if p.cur().kind == tkIdent {
			ref.Alias = p.next().text
		}
		s.From = append(s.From, ref)
		if !p.accept(tkSymbol, ",") {
			break
		}
	}
	if p.accept(tkKeyword, "WHERE") {
		w, err := p.scalar()
		if err != nil {
			return nil, err
		}
		s.Where = w
	}
	groupBy := false
	if p.accept(tkKeyword, "GROUPBY") {
		groupBy = true
	} else if p.accept(tkKeyword, "GROUP") {
		if _, err := p.expect(tkKeyword, "BY"); err != nil {
			return nil, err
		}
		groupBy = true
	}
	if groupBy {
		for {
			name, err := p.qualifiedName()
			if err != nil {
				return nil, err
			}
			s.GroupBy = append(s.GroupBy, ColRef{Name: name})
			if !p.accept(tkSymbol, ",") {
				break
			}
		}
	}
	if p.accept(tkKeyword, "HAVING") {
		h, err := p.scalar()
		if err != nil {
			return nil, err
		}
		s.Having = h
	}
	// Compound select: UNION ALL / EXCEPT ALL.
	switch {
	case p.accept(tkKeyword, "UNION"):
		if _, err := p.expect(tkKeyword, "ALL"); err != nil {
			return nil, fmt.Errorf("sql: only UNION ALL (bag union) is supported: %w", err)
		}
		next, err := p.selectStmt()
		if err != nil {
			return nil, err
		}
		s.Op, s.Next = "UNION ALL", next
	case p.accept(tkKeyword, "EXCEPT"):
		if _, err := p.expect(tkKeyword, "ALL"); err != nil {
			return nil, fmt.Errorf("sql: only EXCEPT ALL (bag difference) is supported: %w", err)
		}
		next, err := p.selectStmt()
		if err != nil {
			return nil, err
		}
		s.Op, s.Next = "EXCEPT ALL", next
	}
	return s, nil
}

// qualifiedName parses ident[.ident].
func (p *parser) qualifiedName() (string, error) {
	id, err := p.ident()
	if err != nil {
		return "", err
	}
	if p.accept(tkSymbol, ".") {
		id2, err := p.ident()
		if err != nil {
			return "", err
		}
		return id + "." + id2, nil
	}
	return id, nil
}

func (p *parser) insert() (Statement, error) {
	p.next() // INSERT
	if _, err := p.expect(tkKeyword, "INTO"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tkKeyword, "VALUES"); err != nil {
		return nil, err
	}
	ins := &Insert{Table: table}
	for {
		if _, err := p.expect(tkSymbol, "("); err != nil {
			return nil, err
		}
		var row []value.Value
		for {
			v, err := p.literal()
			if err != nil {
				return nil, err
			}
			row = append(row, v)
			if !p.accept(tkSymbol, ",") {
				break
			}
		}
		if _, err := p.expect(tkSymbol, ")"); err != nil {
			return nil, err
		}
		ins.Rows = append(ins.Rows, row)
		if !p.accept(tkSymbol, ",") {
			break
		}
	}
	return ins, nil
}

func (p *parser) literal() (value.Value, error) {
	t := p.cur()
	switch {
	case t.kind == tkNumber:
		p.next()
		if strings.ContainsAny(t.text, ".eE") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return value.Value{}, fmt.Errorf("sql: at %d: %v", t.pos, err)
			}
			return value.NewFloat(f), nil
		}
		i, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return value.Value{}, fmt.Errorf("sql: at %d: %v", t.pos, err)
		}
		return value.NewInt(i), nil
	case t.kind == tkString:
		p.next()
		return value.NewString(t.text), nil
	case t.kind == tkKeyword && t.text == "TRUE":
		p.next()
		return value.NewBool(true), nil
	case t.kind == tkKeyword && t.text == "FALSE":
		p.next()
		return value.NewBool(false), nil
	case t.kind == tkKeyword && t.text == "NULL":
		p.next()
		return value.NewNull(), nil
	case t.kind == tkSymbol && t.text == "-":
		p.next()
		v, err := p.literal()
		if err != nil {
			return value.Value{}, err
		}
		switch v.Kind {
		case value.Int:
			return value.NewInt(-v.I), nil
		case value.Float:
			return value.NewFloat(-v.F()), nil
		}
		return value.Value{}, fmt.Errorf("sql: at %d: cannot negate %v", t.pos, v)
	default:
		return value.Value{}, fmt.Errorf("sql: at %d: expected literal, found %q", t.pos, t.text)
	}
}

func (p *parser) delete() (Statement, error) {
	p.next() // DELETE
	if _, err := p.expect(tkKeyword, "FROM"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	d := &Delete{Table: table}
	if p.accept(tkKeyword, "WHERE") {
		w, err := p.scalar()
		if err != nil {
			return nil, err
		}
		d.Where = w
	}
	return d, nil
}

func (p *parser) update() (Statement, error) {
	p.next() // UPDATE
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tkKeyword, "SET"); err != nil {
		return nil, err
	}
	u := &Update{Table: table}
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tkSymbol, "="); err != nil {
			return nil, err
		}
		e, err := p.scalar()
		if err != nil {
			return nil, err
		}
		u.Set = append(u.Set, SetClause{Column: col, Expr: e})
		if !p.accept(tkSymbol, ",") {
			break
		}
	}
	if p.accept(tkKeyword, "WHERE") {
		w, err := p.scalar()
		if err != nil {
			return nil, err
		}
		u.Where = w
	}
	return u, nil
}

// scalar parses expressions with precedence: OR < AND < NOT < comparison
// < additive < multiplicative < primary.
func (p *parser) scalar() (Scalar, error) { return p.orExpr() }

func (p *parser) orExpr() (Scalar, error) {
	l, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.accept(tkKeyword, "OR") {
		r, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		l = BinExpr{Op: "OR", L: l, R: r}
	}
	return l, nil
}

func (p *parser) andExpr() (Scalar, error) {
	l, err := p.notExpr()
	if err != nil {
		return nil, err
	}
	for p.accept(tkKeyword, "AND") {
		r, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		l = BinExpr{Op: "AND", L: l, R: r}
	}
	return l, nil
}

func (p *parser) notExpr() (Scalar, error) {
	if p.accept(tkKeyword, "NOT") {
		e, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		return NotExpr{E: e}, nil
	}
	return p.cmpExpr()
}

func (p *parser) cmpExpr() (Scalar, error) {
	l, err := p.addExpr()
	if err != nil {
		return nil, err
	}
	for _, op := range []string{"<=", ">=", "<>", "=", "<", ">"} {
		if p.accept(tkSymbol, op) {
			r, err := p.addExpr()
			if err != nil {
				return nil, err
			}
			return BinExpr{Op: op, L: l, R: r}, nil
		}
	}
	return l, nil
}

func (p *parser) addExpr() (Scalar, error) {
	l, err := p.mulExpr()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.accept(tkSymbol, "+"):
			r, err := p.mulExpr()
			if err != nil {
				return nil, err
			}
			l = BinExpr{Op: "+", L: l, R: r}
		case p.accept(tkSymbol, "-"):
			r, err := p.mulExpr()
			if err != nil {
				return nil, err
			}
			l = BinExpr{Op: "-", L: l, R: r}
		default:
			return l, nil
		}
	}
}

func (p *parser) mulExpr() (Scalar, error) {
	l, err := p.primary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.accept(tkSymbol, "*"):
			r, err := p.primary()
			if err != nil {
				return nil, err
			}
			l = BinExpr{Op: "*", L: l, R: r}
		case p.accept(tkSymbol, "/"):
			r, err := p.primary()
			if err != nil {
				return nil, err
			}
			l = BinExpr{Op: "/", L: l, R: r}
		default:
			return l, nil
		}
	}
}

func (p *parser) primary() (Scalar, error) {
	t := p.cur()
	switch {
	case t.kind == tkSymbol && t.text == "(":
		p.next()
		e, err := p.scalar()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tkSymbol, ")"); err != nil {
			return nil, err
		}
		return e, nil
	case t.kind == tkKeyword && (t.text == "SUM" || t.text == "COUNT" ||
		t.text == "AVG" || t.text == "MIN" || t.text == "MAX"):
		p.next()
		if _, err := p.expect(tkSymbol, "("); err != nil {
			return nil, err
		}
		if t.text == "COUNT" && p.accept(tkSymbol, "*") {
			if _, err := p.expect(tkSymbol, ")"); err != nil {
				return nil, err
			}
			return AggExpr{Func: "COUNT"}, nil
		}
		arg, err := p.scalar()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tkSymbol, ")"); err != nil {
			return nil, err
		}
		return AggExpr{Func: t.text, Arg: arg}, nil
	case t.kind == tkIdent:
		name, err := p.qualifiedName()
		if err != nil {
			return nil, err
		}
		return ColRef{Name: name}, nil
	default:
		v, err := p.literal()
		if err != nil {
			return nil, err
		}
		return Literal{V: v}, nil
	}
}
