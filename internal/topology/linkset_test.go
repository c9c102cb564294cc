package topology

import (
	"slices"
	"testing"
)

func TestLinkSetBasics(t *testing.T) {
	s := NewLinkSet(200)
	if s.Len() != 0 {
		t.Fatalf("new set has Len %d", s.Len())
	}
	for _, l := range []LinkID{0, 63, 64, 127, 199} {
		if s.Has(l) {
			t.Fatalf("empty set contains %d", l)
		}
		s.Add(l)
		if !s.Has(l) {
			t.Fatalf("set missing %d after Add", l)
		}
	}
	if s.Len() != 5 {
		t.Fatalf("Len = %d, want 5", s.Len())
	}
	s.Remove(64)
	if s.Has(64) || s.Len() != 4 {
		t.Fatalf("Remove(64) failed: Has=%v Len=%d", s.Has(64), s.Len())
	}
	s.Remove(64) // no-op
	if s.Len() != 4 {
		t.Fatal("double Remove changed Len")
	}
	s.Clear()
	if s.Len() != 0 || s.Has(0) {
		t.Fatal("Clear left elements behind")
	}
}

func TestLinkSetNilAndOutOfRange(t *testing.T) {
	var s *LinkSet
	if s.Has(3) {
		t.Fatal("nil set Has(3)")
	}
	if s.Len() != 0 {
		t.Fatal("nil set Len != 0")
	}
	s.Each(func(LinkID) { t.Fatal("nil set Each fired") })
	ns := NewLinkSet(10)
	if ns.Has(1000) || ns.Has(NoLink) {
		t.Fatal("out-of-range/NoLink membership")
	}
	ns.Remove(1000) // must not panic
}

func TestLinkSetGrowCopyUnion(t *testing.T) {
	a := NewLinkSet(10)
	a.Add(700) // beyond initial capacity: grows
	if !a.Has(700) {
		t.Fatal("Add beyond capacity lost the bit")
	}
	b := NewLinkSet(10)
	b.Add(3)
	b.Union(a)
	if !b.Has(3) || !b.Has(700) {
		t.Fatal("Union missing elements")
	}
	c := b.Clone()
	b.Remove(3)
	if !c.Has(3) {
		t.Fatal("Clone aliased the source")
	}
	var d LinkSet
	d.CopyFrom(c)
	if !d.Has(700) || d.Len() != c.Len() {
		t.Fatal("CopyFrom mismatch")
	}
	d.CopyFrom(nil)
	if d.Len() != 0 {
		t.Fatal("CopyFrom(nil) did not clear")
	}
}

func TestLinkSetEachOrder(t *testing.T) {
	s := NewLinkSet(300)
	want := []LinkID{2, 5, 64, 190, 255}
	for _, l := range want {
		s.Add(l)
	}
	var got []LinkID
	s.Each(func(l LinkID) { got = append(got, l) })
	if len(got) != len(want) {
		t.Fatalf("Each visited %d links, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Each order: got %v, want %v", got, want)
		}
	}
}

func TestLinkSetIter(t *testing.T) {
	s := NewLinkSet(300)
	for _, l := range []LinkID{2, 5, 63, 64, 190, 255, 299} {
		s.Add(l)
	}
	walk := func(s, except *LinkSet) []LinkID {
		var got []LinkID
		it := s.Iter(except)
		for l := it.Next(); l != NoLink; l = it.Next() {
			got = append(got, l)
			s.Remove(l) // a returned link may go
		}
		if l := it.Next(); l != NoLink {
			t.Errorf("Next after the end of the walk = %d", l)
		}
		return got
	}
	except := NewLinkSet(128) // shorter than s: links past it are not excluded
	except.Add(5)
	except.Add(64)
	except.Add(7) // not in s
	if got, want := walk(s.Clone(), except), []LinkID{2, 63, 190, 255, 299}; !slices.Equal(got, want) {
		t.Errorf("walk with an except set: got %v, want %v", got, want)
	}
	if got, want := walk(s.Clone(), nil), []LinkID{2, 5, 63, 64, 190, 255, 299}; !slices.Equal(got, want) {
		t.Errorf("walk: got %v, want %v", got, want)
	}
	if got := walk(s, s.Clone()); got != nil {
		t.Errorf("walk of s except s: got %v", got)
	}
	var ns *LinkSet
	if it := ns.Iter(s); it.Next() != NoLink {
		t.Error("a nil set has a link")
	}
}

func TestLinkSetFunc(t *testing.T) {
	s := NewLinkSet(16)
	s.Add(7)
	fn := s.Func()
	if !fn(7) || fn(8) {
		t.Fatal("Func predicate mismatch")
	}
}
