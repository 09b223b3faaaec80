package sqlparser

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/value"
)

// Format renders statements back to parseable SQL. The output is
// canonical, not source-faithful: expressions are fully parenthesized,
// keywords are upper-cased and implicit aliases become explicit AS
// clauses. The printer is a fixed point under reparsing —
// Format(Parse(Format(Parse(x)))) == Format(Parse(x)) — which is the
// property the FuzzParseSQL round-trip checks.
func Format(stmts []Statement) string {
	parts := make([]string, len(stmts))
	for i, s := range stmts {
		parts[i] = FormatStatement(s)
	}
	return strings.Join(parts, ";\n")
}

// FormatStatement renders one statement (no trailing semicolon).
func FormatStatement(s Statement) string {
	switch s := s.(type) {
	case *CreateTable:
		var defs []string
		for _, c := range s.Columns {
			d := c.Name + " " + typeName(c.Type)
			if c.PrimaryKey {
				d += " PRIMARY KEY"
			}
			defs = append(defs, d)
		}
		if len(s.PrimaryKey) > 0 {
			defs = append(defs, "PRIMARY KEY ("+strings.Join(s.PrimaryKey, ", ")+")")
		}
		return "CREATE TABLE " + s.Name + " (" + strings.Join(defs, ", ") + ")"
	case *CreateIndex:
		return "CREATE INDEX " + s.Name + " ON " + s.Table +
			" (" + strings.Join(s.Columns, ", ") + ")"
	case *CreateView:
		out := "CREATE VIEW " + s.Name
		if len(s.Columns) > 0 {
			out += " (" + strings.Join(s.Columns, ", ") + ")"
		}
		return out + " AS " + formatSelect(s.Select)
	case *CreateAssertion:
		return "CREATE ASSERTION " + s.Name +
			" CHECK (NOT EXISTS (" + formatSelect(s.Select) + "))"
	case *SelectStmt:
		return formatSelect(s)
	case *Insert:
		rows := make([]string, len(s.Rows))
		for i, row := range s.Rows {
			vals := make([]string, len(row))
			for j, v := range row {
				vals[j] = litString(v)
			}
			rows[i] = "(" + strings.Join(vals, ", ") + ")"
		}
		return "INSERT INTO " + s.Table + " VALUES " + strings.Join(rows, ", ")
	case *Delete:
		out := "DELETE FROM " + s.Table
		if s.Where != nil {
			out += " WHERE " + formatScalar(s.Where)
		}
		return out
	case *Update:
		sets := make([]string, len(s.Set))
		for i, sc := range s.Set {
			sets[i] = sc.Column + " = " + formatScalar(sc.Expr)
		}
		out := "UPDATE " + s.Table + " SET " + strings.Join(sets, ", ")
		if s.Where != nil {
			out += " WHERE " + formatScalar(s.Where)
		}
		return out
	default:
		panic(fmt.Sprintf("sqlparser: Format: unknown statement %T", s))
	}
}

func formatSelect(s *SelectStmt) string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if s.Distinct {
		b.WriteString("DISTINCT ")
	}
	for i, it := range s.Items {
		if i > 0 {
			b.WriteString(", ")
		}
		if it.Star {
			b.WriteString("*")
			continue
		}
		b.WriteString(formatScalar(it.Expr))
		if it.As != "" {
			b.WriteString(" AS " + it.As)
		}
	}
	b.WriteString(" FROM ")
	for i, ref := range s.From {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(ref.Name)
		if ref.Alias != "" && ref.Alias != ref.Name {
			b.WriteString(" " + ref.Alias)
		}
	}
	if s.Where != nil {
		b.WriteString(" WHERE " + formatScalar(s.Where))
	}
	if len(s.GroupBy) > 0 {
		b.WriteString(" GROUP BY ")
		for i, c := range s.GroupBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(c.Name)
		}
	}
	if s.Having != nil {
		b.WriteString(" HAVING " + formatScalar(s.Having))
	}
	if s.Op != "" && s.Next != nil {
		b.WriteString(" " + s.Op + " " + formatSelect(s.Next))
	}
	return b.String()
}

// formatScalar fully parenthesizes binary expressions, so the printed
// form reparses to the identical tree regardless of precedence.
func formatScalar(e Scalar) string {
	switch e := e.(type) {
	case ColRef:
		return e.Name
	case Literal:
		return litString(e.V)
	case BinExpr:
		return "(" + formatScalar(e.L) + " " + e.Op + " " + formatScalar(e.R) + ")"
	case NotExpr:
		return "NOT " + formatScalar(e.E)
	case AggExpr:
		if e.Arg == nil {
			return e.Func + "(*)"
		}
		return e.Func + "(" + formatScalar(e.Arg) + ")"
	default:
		panic(fmt.Sprintf("sqlparser: Format: unknown scalar %T", e))
	}
}

// litString renders a literal in lexer-compatible form: floats in
// strconv's shortest %g form (3.5, 1e+308, 2.5e-05), a whole one with
// ".0" so that it reparses as a Float; strings with embedded quotes
// doubled.
func litString(v value.Value) string {
	switch v.Kind {
	case value.Null:
		return "NULL"
	case value.Int:
		return strconv.FormatInt(v.I, 10)
	case value.Float:
		s := strconv.FormatFloat(v.F(), 'g', -1, 64)
		if !strings.ContainsAny(s, ".eIN") {
			s += ".0"
		}
		return s
	case value.String:
		return "'" + strings.ReplaceAll(v.S, "'", "''") + "'"
	case value.Bool:
		if v.B {
			return "TRUE"
		}
		return "FALSE"
	default:
		panic(fmt.Sprintf("sqlparser: Format: unknown literal kind %v", v.Kind))
	}
}

func typeName(k value.Kind) string {
	switch k {
	case value.Int:
		return "INT"
	case value.Float:
		return "FLOAT"
	case value.String:
		return "VARCHAR"
	case value.Bool:
		return "BOOLEAN"
	default:
		panic(fmt.Sprintf("sqlparser: Format: unknown column type %v", k))
	}
}
