package model

import (
	"fmt"
	"strings"
	"testing"
)

// TestChannelModel checks the shipped channel protocol: two senders and
// two receivers over a ring of one cell (every send but the first finds
// it full) and of two (cells are published out of ticket order), with
// bounded receivers and then with receivers that run until a Close
// following the last send; and a close racing the traffic of one sender
// and one receiver, where senders block into it.
func TestChannelModel(t *testing.T) {
	for _, cfg := range []ChanConfig{
		{Cap: 1, Senders: 2, Receivers: 2, Items: 1, Recvs: 1},
		{Cap: 2, Senders: 2, Receivers: 2, Items: 1, Recvs: 1},
		{Cap: 2, Senders: 2, Receivers: 2, Items: 1},
		{Cap: 1, Senders: 1, Receivers: 1, Items: 2, CloseEarly: true},
		{Cap: 2, Senders: 1, Receivers: 1, Items: 3, CloseEarly: true},
	} {
		name := fmt.Sprintf("cap%d-%dx%d-items%d-recvs%d-early=%v", cfg.Cap, cfg.Senders, cfg.Receivers, cfg.Items, cfg.Recvs, cfg.CloseEarly)
		t.Run(name, func(t *testing.T) {
			r := CheckChannel(cfg)
			if r.Violation != nil {
				t.Fatalf("channel model violated:\n%s", r.Violation)
			}
			if r.States < 1000 || r.Executions == 0 {
				t.Fatalf("exploration too small: %d states, %d executions", r.States, r.Executions)
			}
			t.Logf("%d states, %d terminal: nobody sleeps beside a usable cell, no item lost or doubled, everyone returns", r.States, r.Executions)
		})
	}
}

// TestChannelModelCatchesLostWakeups validates the checker's
// sensitivity: without the own-side wake a receiver sleeps beside the
// item published behind an unpublished head, and without the re-check a
// receiver that registers after the sender looked for waiters sleeps
// beside that sender's item.
func TestChannelModelCatchesLostWakeups(t *testing.T) {
	for name, cfg := range map[string]ChanConfig{
		"no chain wake": {Cap: 2, Senders: 2, Receivers: 2, Items: 1, Recvs: 1, BuggyNoChainWake: true},
		"no re-check":   {Cap: 1, Senders: 2, Receivers: 2, Items: 1, Recvs: 1, BuggyNoRecheck: true},
	} {
		r := CheckChannel(cfg)
		if r.Violation == nil || !strings.HasPrefix(r.Violation.Kind, "lost wakeup") {
			t.Fatalf("%s: not caught as a lost wakeup: %v", name, r.Violation)
		}
		t.Logf("%s: %s (%d steps)", name, r.Violation.Kind, len(r.Violation.Trace))
	}
}
