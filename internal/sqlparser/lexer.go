// Package sqlparser is the SQL subset front end: CREATE TABLE / INDEX /
// VIEW / ASSERTION, SELECT-FROM-WHERE-GROUP BY-HAVING blocks, and
// INSERT/DELETE/UPDATE statements. Views and assertions translate to the
// logical algebra of internal/algebra; DML statements translate to
// differentials for the maintenance engine.
//
// The subset covers everything the paper writes in SQL: the views
// ProblemDept, SumOfSals and ADeptsStatus, and the assertion
// DeptConstraint (CREATE ASSERTION ... CHECK (NOT EXISTS (...))).
package sqlparser

import (
	"fmt"
	"strings"
	"unicode"
)

// tokenKind classifies lexer output.
type tokenKind int

const (
	tkEOF tokenKind = iota
	tkIdent
	tkNumber
	tkString
	tkSymbol  // ( ) , ; * . =  < > <= >= <> + - /
	tkKeyword // normalized upper-case SQL keyword
)

type token struct {
	kind tokenKind
	text string // keywords upper-cased; identifiers as written
	pos  int
}

var keywords = map[string]bool{
	"CREATE": true, "TABLE": true, "VIEW": true, "INDEX": true,
	"ASSERTION": true, "CHECK": true, "NOT": true, "EXISTS": true,
	"SELECT": true, "DISTINCT": true, "FROM": true, "WHERE": true,
	"GROUP": true, "BY": true, "GROUPBY": true, "HAVING": true, "AS": true,
	"AND": true, "OR": true, "INSERT": true, "INTO": true, "VALUES": true,
	"DELETE": true, "UPDATE": true, "SET": true, "ON": true,
	"PRIMARY": true, "KEY": true, "INT": true, "INTEGER": true,
	"FLOAT": true, "REAL": true, "DOUBLE": true, "VARCHAR": true,
	"CHAR": true, "TEXT": true, "BOOLEAN": true, "BOOL": true,
	"SUM": true, "COUNT": true, "AVG": true, "MIN": true, "MAX": true,
	"TRUE": true, "FALSE": true, "NULL": true, "UNION": true, "ALL": true,
	"EXCEPT": true,
}

// lex splits input into tokens. Errors carry byte positions.
func lex(input string) ([]token, error) {
	var out []token
	i := 0
	n := len(input)
	for i < n {
		c := input[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '-' && i+1 < n && input[i+1] == '-': // line comment
			for i < n && input[i] != '\n' {
				i++
			}
		case c == '\'':
			j := i + 1
			var sb strings.Builder
			for j < n {
				if input[j] == '\'' {
					if j+1 < n && input[j+1] == '\'' { // escaped quote
						sb.WriteByte('\'')
						j += 2
						continue
					}
					break
				}
				sb.WriteByte(input[j])
				j++
			}
			if j >= n {
				return nil, fmt.Errorf("sql: unterminated string at %d", i)
			}
			out = append(out, token{tkString, sb.String(), i})
			i = j + 1
		case c >= '0' && c <= '9':
			j := i
			for j < n && (input[j] >= '0' && input[j] <= '9' || input[j] == '.') {
				j++
			}
			// An exponent (1e308, 2.5E-3, 1e+5) belongs to the literal
			// when at least one digit follows its optional sign.
			if j < n && (input[j] == 'e' || input[j] == 'E') {
				k := j + 1
				if k < n && (input[k] == '+' || input[k] == '-') {
					k++
				}
				if k < n && input[k] >= '0' && input[k] <= '9' {
					for k < n && input[k] >= '0' && input[k] <= '9' {
						k++
					}
					j = k
				}
			}
			out = append(out, token{tkNumber, input[i:j], i})
			i = j
		case isIdentStart(rune(c)):
			j := i
			for j < n && isIdentPart(rune(input[j])) {
				j++
			}
			word := input[i:j]
			up := strings.ToUpper(word)
			if keywords[up] {
				out = append(out, token{tkKeyword, up, i})
			} else {
				out = append(out, token{tkIdent, word, i})
			}
			i = j
		case c == '<':
			if i+1 < n && (input[i+1] == '=' || input[i+1] == '>') {
				out = append(out, token{tkSymbol, input[i : i+2], i})
				i += 2
			} else {
				out = append(out, token{tkSymbol, "<", i})
				i++
			}
		case c == '>':
			if i+1 < n && input[i+1] == '=' {
				out = append(out, token{tkSymbol, ">=", i})
				i += 2
			} else {
				out = append(out, token{tkSymbol, ">", i})
				i++
			}
		case c == '!':
			if i+1 < n && input[i+1] == '=' {
				out = append(out, token{tkSymbol, "<>", i})
				i += 2
			} else {
				return nil, fmt.Errorf("sql: unexpected '!' at %d", i)
			}
		case strings.IndexByte("(),;*.=+-/", c) >= 0:
			out = append(out, token{tkSymbol, string(c), i})
			i++
		default:
			return nil, fmt.Errorf("sql: unexpected character %q at %d", c, i)
		}
	}
	out = append(out, token{tkEOF, "", n})
	return out, nil
}

func isIdentStart(r rune) bool {
	return unicode.IsLetter(r) || r == '_'
}

func isIdentPart(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_'
}
