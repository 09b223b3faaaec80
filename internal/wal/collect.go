package wal

import "repro/internal/catalog"

// Collector resolves base-relation schemas for decoding logged windows.
// Only the base relations of the catalog it was built from are known:
// views are derived, never logged.
type Collector struct {
	schemas map[string]*catalog.Schema
}

// NewCollector builds a collector recognizing exactly the base
// relations registered in cat at construction time.
func NewCollector(cat *catalog.Catalog) *Collector {
	schemas := map[string]*catalog.Schema{}
	for _, name := range cat.Names() {
		schemas[name] = cat.MustGet(name).Schema
	}
	return &Collector{schemas: schemas}
}

// Schema resolves a base relation's schema; it is the SchemaSource used
// to decode windows written by the manager that owns this collector.
func (c *Collector) Schema(rel string) (*catalog.Schema, bool) {
	s, ok := c.schemas[rel]
	return s, ok
}
