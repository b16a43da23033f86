package scribe

import (
	"slices"
	"sync"
	"testing"
	"testing/quick"
)

func TestCreateCategory(t *testing.T) {
	b := NewBus()
	if err := b.CreateCategory("cat", 4); err != nil {
		t.Fatal(err)
	}
	if got := b.Partitions("cat"); got != 4 {
		t.Fatalf("Partitions = %d, want 4", got)
	}
	// Idempotent with same count.
	if err := b.CreateCategory("cat", 4); err != nil {
		t.Fatalf("idempotent create failed: %v", err)
	}
	// Error with different count.
	if err := b.CreateCategory("cat", 8); err == nil {
		t.Fatal("repartition silently accepted")
	}
	// Error with non-positive count.
	if err := b.CreateCategory("bad", 0); err == nil {
		t.Fatal("zero partitions accepted")
	}
}

func TestAppendAndWritten(t *testing.T) {
	b := NewBus()
	if err := b.CreateCategory("cat", 2); err != nil {
		t.Fatal(err)
	}
	if err := b.Append("cat", 1, 100, 10); err != nil {
		t.Fatal(err)
	}
	bytes, msgs, err := b.Written("cat", 1)
	if err != nil || bytes != 100 || msgs != 10 {
		t.Fatalf("Written = %d,%d,%v want 100,10,nil", bytes, msgs, err)
	}
	bytes, _, _ = b.Written("cat", 0)
	if bytes != 0 {
		t.Fatalf("untouched partition has %d bytes", bytes)
	}
}

func TestAppendErrors(t *testing.T) {
	b := NewBus()
	b.CreateCategory("cat", 2)
	if err := b.Append("nope", 0, 1, 1); err == nil {
		t.Fatal("append to unknown category accepted")
	}
	if err := b.Append("cat", 5, 1, 1); err == nil {
		t.Fatal("append to out-of-range partition accepted")
	}
	if err := b.Append("cat", 0, -1, 0); err == nil {
		t.Fatal("negative append accepted")
	}
}

func TestAppendEvenDistributesWithRemainder(t *testing.T) {
	b := NewBus()
	b.CreateCategory("cat", 3)
	if err := b.AppendEven("cat", 10, 4); err != nil {
		t.Fatal(err)
	}
	var totalB, totalM int64
	for i := 0; i < 3; i++ {
		bs, ms, _ := b.Written("cat", i)
		totalB += bs
		totalM += ms
		if bs < 3 || bs > 4 {
			t.Fatalf("partition %d got %d bytes, want 3 or 4", i, bs)
		}
	}
	if totalB != 10 || totalM != 4 {
		t.Fatalf("totals = %d,%d want 10,4", totalB, totalM)
	}
}

func TestAppendWeighted(t *testing.T) {
	b := NewBus()
	b.CreateCategory("cat", 2)
	if err := b.AppendWeighted("cat", 100, []float64{3, 1}, 10); err != nil {
		t.Fatal(err)
	}
	b0, m0, _ := b.Written("cat", 0)
	b1, m1, _ := b.Written("cat", 1)
	if b0 != 75 || b1 != 25 {
		t.Fatalf("weighted split = %d,%d want 75,25", b0, b1)
	}
	if m0 != 7 || m1 != 2 {
		t.Fatalf("messages = %d,%d want 7,2", m0, m1)
	}
}

func TestAppendWeightedErrors(t *testing.T) {
	b := NewBus()
	b.CreateCategory("cat", 2)
	if err := b.AppendWeighted("cat", 10, []float64{1}, 0); err == nil {
		t.Fatal("wrong weight count accepted")
	}
	if err := b.AppendWeighted("cat", 10, []float64{1, -1}, 0); err == nil {
		t.Fatal("negative weight accepted")
	}
	if err := b.AppendWeighted("cat", 10, []float64{0, 0}, 0); err == nil {
		t.Fatal("zero weights accepted")
	}
	if err := b.AppendWeighted("nope", 10, []float64{1, 1}, 0); err == nil {
		t.Fatal("unknown category accepted")
	}
}

// ends reads the listed partitions' end offsets through the batched call.
func ends(b *Bus, name string, parts ...int) []int64 {
	out := make([]int64, len(parts))
	b.Ends(name, parts, out)
	return out
}

func TestBacklogAndRead(t *testing.T) {
	b := NewBus()
	b.CreateCategory("cat", 3)
	b.Append("cat", 0, 1000, 0)
	b.Append("cat", 2, 70, 0)

	// One snapshot, in the order asked, of exactly the partitions asked.
	if got := ends(b, "cat", 2, 0); got[0] != 70 || got[1] != 1000 {
		t.Fatalf("Ends(2, 0) = %v, want [70 1000]", got)
	}
	// A reader's backlog is end minus its own offset: at 400 of partition 0
	// it has 600 left, and reading "more than available" stops at the end.
	offset := int64(400)
	end := ends(b, "cat", 0)[0]
	if lag := end - offset; lag != 600 {
		t.Fatalf("backlog after reading 400 = %d, want 600", lag)
	}
	offset = min(offset+10000, end)
	if offset != 1000 {
		t.Fatalf("offset after draining = %d, want 1000", offset)
	}
	// The snapshot is a copy: later appends move the bus, not the slice.
	snap := ends(b, "cat", 0, 1, 2)
	b.Append("cat", 1, 5, 0)
	if snap[1] != 0 {
		t.Fatalf("snapshot moved with a later append: %v", snap)
	}
	if got := ends(b, "cat", 0, 1, 2); got[0] != 1000 || got[1] != 5 || got[2] != 70 {
		t.Fatalf("Ends after append = %v, want [1000 5 70]", got)
	}
}

func TestBacklogFloorsAtZero(t *testing.T) {
	// A reader ahead of the log (a checkpoint from a deleted-and-recreated
	// category) is handed the true end, below its offset: the floor at zero
	// is the reader's, and it can only apply it if the end is not clamped
	// to anything on its behalf.
	b := NewBus()
	b.CreateCategory("cat", 1)
	b.Append("cat", 0, 10, 0)
	if end := ends(b, "cat", 0)[0]; end != 10 || max(end-50, 0) != 0 {
		t.Fatalf("end = %d for a reader at 50, want 10 (backlog floors at 0)", end)
	}
}

func TestBacklogUnknownCategoryIsZero(t *testing.T) {
	b := NewBus()
	into := []int64{7, 8, 9}
	b.Ends("nope", []int{0, 1}, into)
	if into[0] != 0 || into[1] != 0 {
		t.Fatalf("Ends of an unknown category = %v, want zeros", into[:2])
	}
	if into[2] != 9 {
		t.Fatalf("Ends wrote past the partitions asked: %v", into)
	}
}

func TestReadInvalidArgs(t *testing.T) {
	b := NewBus()
	b.CreateCategory("cat", 2)
	b.Append("cat", 0, 10, 0)
	b.Append("cat", 1, 20, 0)
	// Out-of-range and negative partitions read as never written, without
	// disturbing their neighbours.
	into := []int64{-1, -1, -1, -1, -1}
	b.Ends("cat", []int{9, 1, -3, 0}, into)
	if want := []int64{0, 20, 0, 10, -1}; !slices.Equal(into, want) {
		t.Fatalf("Ends = %v, want %v", into, want)
	}
	b.Ends("cat", nil, nil) // nothing asked, nothing written
}

func TestTotalWrittenAndEnd(t *testing.T) {
	b := NewBus()
	b.CreateCategory("cat", 3)
	b.Append("cat", 0, 5, 0)
	b.Append("cat", 2, 7, 0)
	if got := b.TotalWritten("cat"); got != 12 {
		t.Fatalf("TotalWritten = %d, want 12", got)
	}
	if got := ends(b, "cat", 2)[0]; got != 7 {
		t.Fatalf("end of partition 2 = %d, want 7", got)
	}
	if got := b.TotalWritten("nope"); got != 0 {
		t.Fatalf("TotalWritten(unknown) = %d", got)
	}
}

func TestAvgMessageSize(t *testing.T) {
	b := NewBus()
	b.CreateCategory("cat", 1)
	if got := b.AvgMessageSize("cat", 0); got != 0 {
		t.Fatalf("AvgMessageSize empty = %d, want 0", got)
	}
	b.Append("cat", 0, 1000, 10)
	if got := b.AvgMessageSize("cat", 0); got != 100 {
		t.Fatalf("AvgMessageSize = %d, want 100", got)
	}
}

func TestCategoriesSortedAndDelete(t *testing.T) {
	b := NewBus()
	b.CreateCategory("zeta", 1)
	b.CreateCategory("alpha", 1)
	got := b.Categories()
	if len(got) != 2 || got[0] != "alpha" || got[1] != "zeta" {
		t.Fatalf("Categories = %v", got)
	}
	b.DeleteCategory("alpha")
	if got := b.Categories(); len(got) != 1 || got[0] != "zeta" {
		t.Fatalf("after delete, Categories = %v", got)
	}
	if b.Partitions("alpha") != 0 {
		t.Fatal("deleted category still has partitions")
	}
}

// Property: conservation — a reader that advances in arbitrary chunk
// sizes, never past the end a snapshot shows it, eventually consumes
// exactly what was written, never more.
func TestReadConservationProperty(t *testing.T) {
	f := func(appends []uint16, chunks []uint16) bool {
		b := NewBus()
		b.CreateCategory("c", 1)
		var written int64
		for _, a := range appends {
			b.Append("c", 0, int64(a), 0)
			written += int64(a)
		}
		var offset, consumed int64
		read := func(maxBytes int64) int64 {
			n := min(max(ends(b, "c", 0)[0]-offset, 0), maxBytes)
			offset += n
			consumed += n
			return n
		}
		for _, ch := range chunks {
			read(int64(ch) + 1)
		}
		for read(1<<30) > 0 { // drain the rest
		}
		return consumed == written && offset == written && ends(b, "c", 0)[0] == offset
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: AppendEven conserves totals across partition counts.
func TestAppendEvenConservationProperty(t *testing.T) {
	f := func(total uint32, parts uint8) bool {
		n := int(parts%16) + 1
		b := NewBus()
		b.CreateCategory("c", n)
		b.AppendEven("c", int64(total), int64(total/3))
		return b.TotalWritten("c") == int64(total)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentAppendRead(t *testing.T) {
	b := NewBus()
	b.CreateCategory("c", 4)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				b.Append("c", g%4, 10, 1)
				ends(b, "c", g%4, (g+1)%4)
				b.TotalWritten("c")
			}
		}()
	}
	wg.Wait()
	if got := b.TotalWritten("c"); got != 8*500*10 {
		t.Fatalf("TotalWritten = %d, want %d", got, 8*500*10)
	}
}
