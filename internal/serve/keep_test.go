package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"latch"
)

// spreadJob stores a word into each of 60 pages, each in its own 4 MiB
// region (its own page-table leaf), starting at region 60*k.
func spreadJob(k int) ProgramJob {
	return ProgramJob{Source: fmt.Sprintf(`
			li   r6, %d
			movi r5, 60
			li   r7, 0x400000
		loop:
			stw  r5, [r6]
			add  r6, r6, r7
			addi r5, r5, -1
			bne  r5, r0, loop
			movi r1, 0
			sys  1
		`, 60*k<<22)}
}

// TestWorkerKeepsBoundedSystem runs jobs that outgrow keepPages — a 16-byte
// read into 0xFFFFF000, which grows the module's dense coarse tables to
// about 16 MiB, and a job tainting one byte in each of 4096 pages — and
// checks that after each, what the worker keeps is back under the bound:
// no System right after the large job, a reusable one after the next small
// job, and a live heap within 4 MiB of what it was after the first small
// job. Sixteen jobs within keepPages that each store into 60 fresh
// page-table leaves (7.5 MiB of leaves if none were recycled) must not
// raise the heap past that either.
func TestWorkerKeepsBoundedSystem(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 2})
	ts := httptest.NewServer(s)
	t.Cleanup(func() { ts.Close(); s.Close() })
	post := func(job ProgramJob) {
		t.Helper()
		body, err := json.Marshal(job)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/program", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		out, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || !bytes.Contains(out, []byte(`"type":"result"`)) {
			t.Fatalf("status %d, err %v: %s", resp.StatusCode, err, out)
		}
	}
	liveHeap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	small := ProgramJob{Source: "li r1, 0x8000\n movi r2, 8\n sys 2\n movi r1, 0\n sys 1", Input: "external"}
	large := []ProgramJob{
		{Source: "li r1, 0xFFFFF000\n movi r2, 16\n sys 2\n movi r1, 0\n sys 1", Input: "0123456789abcdef"},
		{Source: `
			li   r6, 0x100000
			li   r5, 4096
			li   r7, 4096
		loop:
			mov  r1, r6
			movi r2, 1
			sys  2
			add  r6, r6, r7
			addi r5, r5, -1
			bne  r5, r0, loop
			movi r1, 0
			sys  1
		`, Input: strings.Repeat("x", 4096)},
	}

	// kept reads the worker's System on the worker's own goroutine, after
	// the jobs before it.
	kept := func() *latch.System {
		t.Helper()
		ch := make(chan *latch.System, 1)
		if ok, err := s.disp.TrySubmit(func(int) { ch <- s.workers[0].system }); !ok || err != nil {
			t.Fatalf("submit: %v %v", ok, err)
		}
		return <-ch
	}

	post(small)
	if sys := kept(); sys == nil || !sys.Retainable(keepPages) {
		t.Fatal("the worker did not keep its System after a small job")
	}
	base := liveHeap()
	for i, job := range large {
		post(job)
		if sys := kept(); sys != nil {
			t.Fatalf("large job %d: the worker kept a System holding %d guest and %d tag pages (grown tables: %v)",
				i, sys.Machine.Mem.PagesAllocated(), sys.Shadow.PagesAllocated(), sys.Module.TablesGrown())
		}
		post(small)
		if sys := kept(); sys == nil || !sys.Retainable(keepPages) {
			t.Fatalf("large job %d: no reusable System after the next small job", i)
		}
		if heap := liveHeap(); heap > base+4<<20 {
			t.Fatalf("large job %d: live heap %d KiB after a small job, %d KiB before the large one", i, heap>>10, base>>10)
		}
	}
	for k := 0; k < 16; k++ {
		post(spreadJob(k))
	}
	post(small)
	if sys := kept(); sys == nil || !sys.Retainable(keepPages) {
		t.Fatal("no reusable System after the spread jobs")
	}
	if heap := liveHeap(); heap > base+4<<20 {
		t.Fatalf("spread jobs: live heap %d KiB after a small job, %d KiB before them", heap>>10, base>>10)
	}
}
