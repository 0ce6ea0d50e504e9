package cluster_test

import (
	"bytes"
	"context"
	"testing"

	"botscope/internal/cluster"
)

// TestShardAdminHonorsCallerContext pins the deadline-threading contract
// of the admin surface: leave/join run under the caller's context, so a
// cancelled admin request neither resets a shard nor starts an unbounded
// reconnect.
func TestShardAdminHonorsCallerContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	local, err := cluster.StartLocal(ctx, 2, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()

	_, feed := replayFeed(t)
	if _, _, err := local.Frontend.LiveIngest(ctx, bytes.NewReader(feed[0])); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	applied := local.Shards[1].Applied()
	if applied == 0 {
		t.Fatal("shard 1 applied nothing; a reset would be invisible")
	}

	dead, kill := context.WithCancel(context.Background())
	kill()
	if err := local.Frontend.ShardLeave(dead, 1); err != nil {
		t.Fatalf("ShardLeave: %v", err)
	}
	if got := local.Shards[1].Applied(); got != applied {
		t.Fatalf("ShardLeave with a cancelled context reset shard 1 (applied %d -> %d); the caller's deadline is being dropped", applied, got)
	}
	if err := local.Frontend.ShardJoin(dead, 1); err == nil {
		t.Fatal("ShardJoin with a cancelled context succeeded; the caller's deadline is being dropped")
	}

	if err := local.Frontend.ShardJoin(ctx, 1); err != nil {
		t.Fatalf("ShardJoin after cancelled attempt: %v", err)
	}
	if err := local.Frontend.ShardLeave(ctx, 1); err != nil {
		t.Fatalf("ShardLeave: %v", err)
	}
	if got := local.Shards[1].Applied(); got != 0 {
		t.Fatalf("ShardLeave under a live context left shard 1 at %d applied entries, want a reset to 0", got)
	}
}
