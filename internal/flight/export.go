package flight

import (
	"encoding/json"
	"fmt"
	"io"
)

// SchemaVersion identifies the export format. Bump on any change to
// the document shape.
const SchemaVersion = "crest-flight/v1"

// jsonDoc is the export envelope. Budgets serialize as fixed arrays in
// Component order and attempt detail in trace.Phase / VerbClass order;
// the schema string pins those orders.
type jsonDoc struct {
	Schema    string      `json:"schema"`
	Dropped   uint64      `json:"dropped"`
	Txns      []TxnBudget `json:"txns"`
	Exemplars []Exemplar  `json:"exemplars"`
}

// WriteJSON exports a snapshot. Deterministic: same snapshot, same
// bytes — and ReadJSON followed by WriteJSON reproduces the input
// byte for byte.
func WriteJSON(w io.Writer, s *Snapshot) error {
	doc := jsonDoc{
		Schema:    SchemaVersion,
		Dropped:   s.Dropped,
		Txns:      s.Txns,
		Exemplars: s.Exemplars,
	}
	if doc.Txns == nil {
		doc.Txns = []TxnBudget{}
	}
	// Fill in nil details on a copy: the snapshot is shared and must
	// not change under its readers.
	doc.Exemplars = make([]Exemplar, len(s.Exemplars))
	copy(doc.Exemplars, s.Exemplars)
	for i := range doc.Exemplars {
		if doc.Exemplars[i].Detail == nil {
			doc.Exemplars[i].Detail = []AttemptInfo{}
		}
	}
	b, err := json.MarshalIndent(&doc, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// ReadJSON parses an export written by WriteJSON, verifying the
// schema version.
func ReadJSON(r io.Reader) (*Snapshot, error) {
	var doc jsonDoc
	dec := json.NewDecoder(r)
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("flight: decoding export: %w", err)
	}
	if doc.Schema != SchemaVersion {
		return nil, fmt.Errorf("flight: schema %q, want %q", doc.Schema, SchemaVersion)
	}
	s := &Snapshot{Txns: doc.Txns, Exemplars: doc.Exemplars, Dropped: doc.Dropped}
	if s.Txns == nil {
		s.Txns = []TxnBudget{}
	}
	if s.Exemplars == nil {
		s.Exemplars = []Exemplar{}
	}
	for i := range s.Exemplars {
		if s.Exemplars[i].Detail == nil {
			s.Exemplars[i].Detail = []AttemptInfo{}
		}
	}
	return s, nil
}
