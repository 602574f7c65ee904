package rankjoin

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// fuzzCursor is an inert cursor for exercising the page-token
// lifecycle without running a query.
type fuzzCursor struct{}

func (fuzzCursor) Next() (*core.JoinResult, error) { return nil, core.ErrCursorClosed }
func (fuzzCursor) Close() error                    { return nil }

// parkedRows is a stream over an inert cursor, as page() would park it.
func parkedRows() *Rows {
	return &Rows{src: &cursorSource{cur: fuzzCursor{}, lane: sim.NewLane(nil)}}
}

// FuzzPageTokens checks the page-token lifecycle: a put token takes
// exactly once, unknown tokens fail without panicking, and token text
// never collides with a just-issued token.
func FuzzPageTokens(f *testing.F) {
	f.Add("q1", "pt-1-q1")
	f.Add("", "")
	f.Add("query-β", "pt-zz-bogus")
	f.Add("NL:R1:R2:10", "pt-")
	f.Fuzz(func(t *testing.T, queryID, junk string) {
		cc := newCursorCache()
		pc := parkedRows()
		token := cc.put(pc, queryID)
		if junk != token {
			if _, err := cc.take(junk); err == nil {
				t.Fatalf("take(%q) succeeded but only %q was issued", junk, token)
			}
		}
		got, err := cc.take(token)
		if err != nil {
			t.Fatalf("take of freshly issued token %q failed: %v", token, err)
		}
		if got != pc {
			t.Fatalf("take(%q) returned a different stream", token)
		}
		if _, err := cc.take(token); err == nil {
			t.Fatalf("second take of single-use token %q succeeded", token)
		}
	})
}

// FuzzTreeQueryDecode feeds hostile JSON to the tree-query wire
// decoder: every input must either produce a typed error or a spec
// that validates into a well-formed acyclic tree — never a panic, and
// never a structurally bad tree sneaking past with a nil error.
func FuzzTreeQueryDecode(f *testing.F) {
	f.Add(`{"relations":["a","b"],"score":"sum","k":10}`)
	f.Add(`{"relations":["a","b","c"],"edges":[{"a":0,"b":1},{"a":1,"b":2,"kind":"band","band":0.5}],"score":"product"}`)
	f.Add(`{"relations":["a","a"],"score":"sum"}`)
	f.Add(`{"relations":["a","b","c"],"edges":[{"a":0,"b":1},{"a":0,"b":1}]}`)
	f.Add(`{"relations":["a","b"],"edges":[{"a":0,"b":7}]}`)
	f.Add(`{"relations":["a","b","c"],"edges":[{"a":1,"b":2,"kind":"band","band":1e999}]}`)
	f.Add(`{"relations":[],"edges":null}`)
	f.Add(`{"k":-3}`)
	f.Add(`not json at all`)
	f.Add(`{"relations":["a","b"],"score":"theta"}`)
	f.Fuzz(func(t *testing.T, data string) {
		spec, err := ParseTreeSpec([]byte(data))
		if err != nil {
			if spec != nil {
				t.Fatalf("ParseTreeSpec returned both a spec and error %v", err)
			}
			var se *ShapeError
			// Non-shape errors (bad JSON, unknown edge kind or score
			// name, undefined-relation shapes) must still be typed
			// enough to carry a message.
			if !errors.As(err, &se) && err.Error() == "" {
				t.Fatalf("error with empty message for input %q", data)
			}
			return
		}
		if spec == nil {
			t.Fatal("nil spec with nil error")
		}
		if len(spec.Relations) < 2 {
			t.Fatalf("accepted spec with %d relations", len(spec.Relations))
		}
		if spec.K < 1 {
			t.Fatalf("accepted spec with k=%d", spec.K)
		}
		// An accepted spec must decode into a query a DB with those
		// relations defined would accept: edges resolve and validate.
		db, err := Open(Config{})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		for _, name := range spec.Relations {
			if _, derr := db.DefineRelation(name); derr != nil {
				t.Fatalf("accepted spec has undefinable relation %q: %v", name, derr)
			}
		}
		if _, qerr := db.NewTreeQueryFromSpec(spec); qerr != nil {
			t.Fatalf("validated spec rejected by NewTreeQueryFromSpec: %v", qerr)
		}
	})
}

// FuzzCursorCacheEviction drives many puts through the bounded cache:
// the entry count must stay within maxCachedCursors, every retained
// token must still take successfully, every evicted stream must be
// closed, and issued tokens must be unique.
func FuzzCursorCacheEviction(f *testing.F) {
	f.Add(uint16(1), "q")
	f.Add(uint16(200), "same-query")
	f.Add(uint16(64), "")
	f.Fuzz(func(t *testing.T, n uint16, queryID string) {
		cc := newCursorCache()
		count := int(n%200) + 1
		tokens := make([]string, 0, count)
		parked := make([]*Rows, 0, count)
		seen := map[string]bool{}
		for i := 0; i < count; i++ {
			rows := parkedRows()
			parked = append(parked, rows)
			tok := cc.put(rows, queryID)
			if seen[tok] {
				t.Fatalf("token %q issued twice", tok)
			}
			seen[tok] = true
			tokens = append(tokens, tok)
		}
		cc.mu.Lock()
		live := cc.entries.Len()
		cc.mu.Unlock()
		if live > maxCachedCursors {
			t.Fatalf("cache holds %d cursors, cap is %d", live, maxCachedCursors)
		}
		if want := min(count, maxCachedCursors); live != want {
			t.Fatalf("cache holds %d cursors after %d puts, want %d", live, count, want)
		}
		// The oldest tokens expired and their streams closed; the newest
		// min(count, cap) tokens must all still be takeable.
		start := count - live
		for i, rows := range parked {
			if rows.closed != (i < start) {
				t.Fatalf("stream %d of %d: closed=%v with %d evicted", i, count, rows.closed, start)
			}
		}
		for _, tok := range tokens[start:] {
			if _, err := cc.take(tok); err != nil {
				t.Fatalf("retained token %q not takeable: %v", tok, err)
			}
		}
	})
}
