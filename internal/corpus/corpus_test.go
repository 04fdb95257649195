package corpus

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"shine/internal/hin"
)

func TestNewDocumentSortsAndDeduplicates(t *testing.T) {
	d := NewDocument("d1", "Wei Wang", hin.ObjectID(7),
		[]hin.ObjectID{5, 3, 5, 5, 1})
	if len(d.Objects) != 3 {
		t.Fatalf("got %d distinct objects, want 3", len(d.Objects))
	}
	want := []ObjectCount{{1, 1}, {3, 1}, {5, 3}}
	for i, oc := range d.Objects {
		if oc != want[i] {
			t.Errorf("Objects[%d] = %+v, want %+v", i, oc, want[i])
		}
	}
	if d.TotalCount() != 5 {
		t.Errorf("TotalCount = %d, want 5", d.TotalCount())
	}
	if countOf(d, 5) != 3 || countOf(d, 1) != 1 {
		t.Errorf("Objects = %+v", d.Objects)
	}
}

// countOf returns the occurrence count of object o in d's bag (zero
// if absent).
func countOf(d *Document, o hin.ObjectID) int {
	for _, oc := range d.Objects {
		if oc.Object == o {
			return oc.Count
		}
	}
	return 0
}

func TestEmptyDocument(t *testing.T) {
	d := NewDocument("d", "m", hin.NoObject, nil)
	if d.TotalCount() != 0 || len(d.Objects) != 0 {
		t.Errorf("empty document has objects: %+v", d)
	}
}

func TestCorpusSubset(t *testing.T) {
	c := &Corpus{}
	for i := 0; i < 5; i++ {
		c.Add(NewDocument("d", "m", hin.NoObject, []hin.ObjectID{hin.ObjectID(i)}))
	}
	sub, err := c.Subset(3)
	if err != nil {
		t.Fatalf("Subset: %v", err)
	}
	if sub.Len() != 3 {
		t.Errorf("Subset len = %d", sub.Len())
	}
	if _, err := c.Subset(6); err == nil {
		t.Error("oversized subset accepted")
	}
	if _, err := c.Subset(-1); err == nil {
		t.Error("negative subset accepted")
	}
}

func TestEstimateGeneric(t *testing.T) {
	c := &Corpus{}
	c.Add(NewDocument("d1", "m", hin.NoObject, []hin.ObjectID{1, 1, 2}))
	c.Add(NewDocument("d2", "m", hin.NoObject, []hin.ObjectID{2}))
	g, err := EstimateGeneric(c)
	if err != nil {
		t.Fatalf("EstimateGeneric: %v", err)
	}
	if math.Abs(g.Prob(1)-0.5) > 1e-12 {
		t.Errorf("Pg(1) = %v, want 0.5", g.Prob(1))
	}
	if math.Abs(g.Prob(2)-0.5) > 1e-12 {
		t.Errorf("Pg(2) = %v, want 0.5", g.Prob(2))
	}
	if g.Prob(99) != 0 {
		t.Errorf("Pg(unseen) = %v, want 0", g.Prob(99))
	}
	if g.Support() != 2 {
		t.Errorf("Support = %d, want 2", g.Support())
	}
	if !g.Dist().IsDistribution(1e-12) {
		t.Error("generic model is not a distribution")
	}
}

func TestEstimateGenericEmptyCorpus(t *testing.T) {
	if _, err := EstimateGeneric(&Corpus{}); err == nil {
		t.Error("empty corpus accepted")
	}
	c := &Corpus{}
	c.Add(NewDocument("d", "m", hin.NoObject, nil))
	if _, err := EstimateGeneric(c); err == nil {
		t.Error("object-free corpus accepted")
	}
}

func TestCorpusSerializationRoundTrip(t *testing.T) {
	d := hin.NewDBLPSchema()
	b := hin.NewBuilder(d.Schema)
	a := b.MustAddObject(d.Author, "A")
	v := b.MustAddObject(d.Venue, "V")
	g := b.Build()

	c := &Corpus{}
	c.Add(NewDocument("d1", "A Name", a, []hin.ObjectID{v, v, a}))
	c.Add(NewDocument("d2", "B Name", hin.NoObject, nil))

	var buf bytes.Buffer
	if err := c.WriteTo(&buf, g); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	c2, err := ReadCorpus(&buf, g)
	if err != nil {
		t.Fatalf("ReadCorpus: %v", err)
	}
	if c2.Len() != 2 {
		t.Fatalf("round trip has %d docs", c2.Len())
	}
	if c2.Docs[0].Mention != "A Name" || c2.Docs[0].Gold != a {
		t.Errorf("doc 0 = %+v", c2.Docs[0])
	}
	if got := countOf(c2.Docs[0], v); got != 2 {
		t.Errorf("count(v) = %v, want 2", got)
	}
	if c2.Docs[1].Gold != hin.NoObject || c2.Docs[1].TotalCount() != 0 {
		t.Errorf("doc 1 = %+v", c2.Docs[1])
	}
}

func TestReadCorpusRejectsBadInput(t *testing.T) {
	d := hin.NewDBLPSchema()
	b := hin.NewBuilder(d.Schema)
	b.MustAddObject(d.Author, "A")
	g := b.Build()

	cases := []string{
		`not json`,
		`{"version": 9, "graphObjects": 1, "documents": 0}`,
		`{"version": 1, "graphObjects": 99, "documents": 0}`,
		`{"version": 1, "graphObjects": 1, "documents": 2}`, // count mismatch
		`{"version": 1, "graphObjects": 1, "documents": 1}
{"id": "d", "mention": "m", "gold": -1, "objects": [[5, 1]]}`, // object out of range
		`{"version": 1, "graphObjects": 1, "documents": 1}
{"id": "d", "mention": "m", "gold": -1, "objects": [[0, 0]]}`, // zero count
		`{"version": 1, "graphObjects": 1, "documents": 1}
{"id": "d", "mention": "m", "gold": -1, "objects": [[0, 1], [0, 1]]}`, // duplicate object
	}
	for i, in := range cases {
		if _, err := ReadCorpus(strings.NewReader(in), g); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}
