package dist

import (
	"context"
	"io"
	"net"
	"slices"
	"testing"
	"time"
)

// TestFormServicesQueuedDeath: a joiner's Hello and a member's death,
// both queued before a pass, are serviced before the epoch forms. No
// pass has run since the last epoch formed, so the shadow holds the
// whole state: the new epoch forms around the survivor and the joiner,
// and no pass is lost.
func TestFormServicesQueuedDeath(t *testing.T) {
	co, err := NewCoordinator(CoordinatorConfig{
		Addr: "127.0.0.1:0", Corpus: e2eCorpus(t), Cfg: e2eConfig(), MinWorkers: 2, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	co.ctx, co.hb = context.Background(), time.NewTicker(time.Hour)
	defer co.ln.Close()
	defer co.hb.Stop()
	defer co.closeAll()
	h := map[string]*connHandle{}
	for _, id := range []string{"a", "b", "c"} {
		ours, theirs := net.Pipe()
		go io.Copy(io.Discard, theirs)
		h[id] = &connHandle{id: id, conn: ours}
	}

	co.events <- evHello{h["a"]}
	co.events <- evHello{h["b"]}
	if err := co.form(); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(co.members, []string{"a", "b"}) {
		t.Fatalf("first epoch has members %v, want [a b]", co.members)
	}

	co.events <- evHello{h["c"]}
	co.events <- evDead{h["b"], io.EOF}
	if err := co.form(); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(co.members, []string{"a", "c"}) || co.epoch != 2 {
		t.Fatalf("epoch %d has members %v, want epoch 2 of [a c]", co.epoch, co.members)
	}
	if co.lost {
		t.Fatal("a death before any pass of the epoch lost the passes")
	}
}
