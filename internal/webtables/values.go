package webtables

import "sort"

// ValueStore aggregates attribute → value-set evidence from table
// columns (and, via AddColumn, from form select menus): §6's "given a
// name of an attribute, return a set of values for its column", the
// service that can "automatically fill out forms in order to surface
// deep-web content" (exercised by experiment E11).
type ValueStore struct {
	vals map[string]map[string]int // attr -> value -> support count
}

// NewValueStore returns an empty store.
func NewValueStore() *ValueStore {
	return &ValueStore{vals: map[string]map[string]int{}}
}

// AddTables folds every (header, column values) pair of the tables in.
func (v *ValueStore) AddTables(ts []RawTable) {
	for _, t := range ts {
		for c, h := range t.Headers {
			for _, row := range t.Rows {
				if c < len(row) {
					v.AddColumn(h, []string{row[c]})
				}
			}
		}
	}
}

// AddColumn adds observed values for an attribute (e.g. a select
// menu's options observed under an input name).
func (v *ValueStore) AddColumn(attr string, values []string) {
	attr = normalizeAttr(attr)
	if attr == "" {
		return
	}
	m := v.vals[attr]
	if m == nil {
		m = map[string]int{}
		v.vals[attr] = m
	}
	for _, val := range values {
		val = normalizeAttr(val)
		if val != "" {
			m[val]++
		}
	}
}

// Values returns up to k values for the attribute, by descending
// support then name; nil when the attribute is unknown.
func (v *ValueStore) Values(attr string, k int) []string {
	m := v.vals[normalizeAttr(attr)]
	if len(m) == 0 || k <= 0 {
		return nil
	}
	type sv struct {
		val string
		n   int
	}
	all := make([]sv, 0, len(m))
	for val, n := range m {
		all = append(all, sv{val, n})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].n != all[j].n {
			return all[i].n > all[j].n
		}
		return all[i].val < all[j].val
	})
	if k < len(all) {
		all = all[:k]
	}
	out := make([]string, len(all))
	for i, x := range all {
		out[i] = x.val
	}
	return out
}

// PropertiesOf implements §6's entity-properties service: given an
// entity string, return the attributes of schemas whose tables contain
// the entity as a cell value, ranked by how often.
func PropertiesOf(ts []RawTable, entity string, k int) []Scored {
	entity = normalizeAttr(entity)
	counts := map[string]int{}
	for _, t := range ts {
		found := false
		for _, row := range t.Rows {
			for _, cell := range row {
				if normalizeAttr(cell) == entity {
					found = true
					break
				}
			}
			if found {
				break
			}
		}
		if found {
			for _, h := range t.Headers {
				counts[h]++
			}
		}
	}
	var out []Scored
	for h, n := range counts {
		out = append(out, Scored{h, float64(n)})
	}
	sortScored(out)
	if k < len(out) {
		out = out[:k]
	}
	return out
}
