package objectstore

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
)

// MigrationRecord is one partition's pending move for the open migration
// window: the nodes that must receive the partition's objects (Adds) and
// the nodes that stop holding them once the handoff commits (Drops). It is
// the membership analog of a RepairRecord — the repair queue's model,
// applied per-partition instead of per-object.
type MigrationRecord struct {
	// Partition is the moving partition.
	Partition int
	// Epoch is the ring epoch this move belongs to.
	Epoch uint64
	// Adds names the nodes joining the partition's placement.
	Adds []string
	// Drops names the nodes leaving it (sources to clear after handoff).
	Drops []string
	// Attempts counts failed migration passes over this record.
	Attempts int
}

// SetMigrationHook installs a hook called with each object path just
// before it is migrated — the chaos seam for killing the migrator
// mid-copy. A non-nil error aborts the current partition's pass; its
// record stays queued and the next RunMigrations resumes it (copies are
// idempotent: ETag-guarded, already-present replicas are skipped).
func (c *Cluster) SetMigrationHook(fn func(path string) error) {
	c.memberMu.Lock()
	defer c.memberMu.Unlock()
	c.migrationHook = fn
}

// MigrationRecords returns a copy of the pending migration queue.
func (c *Cluster) MigrationRecords() []MigrationRecord {
	c.memberMu.Lock()
	defer c.memberMu.Unlock()
	out := make([]MigrationRecord, len(c.migrations))
	copy(out, c.migrations)
	return out
}

// enqueueMigrationsLocked turns the ring's last move diff into per-partition
// migration records. Same-node disk moves need no data movement at node
// granularity and are skipped; if nothing needs moving the epoch commits
// immediately. Caller holds memberMu.
func (c *Cluster) enqueueMigrationsLocked() {
	moves := c.ring.LastMoves()
	if len(moves) == 0 {
		// The ring auto-committed (no migration window); nothing to do, but
		// a drain with zero moves must still detach.
		c.finishEpochLocked()
		return
	}
	parts := make([]int, 0, len(moves))
	seen := make(map[int]bool, len(moves))
	for _, m := range moves {
		if !seen[m.Partition] {
			seen[m.Partition] = true
			parts = append(parts, m.Partition)
		}
	}
	sort.Ints(parts)
	epoch := c.ring.Epoch()
	queued := 0
	for _, p := range parts {
		cur := c.ring.PartitionNodes(p)
		prev := c.ring.PrevPartitionNodes(p)
		adds := nameDiff(cur, prev)
		drops := nameDiff(prev, cur)
		if len(adds) == 0 && len(drops) == 0 {
			continue // disk shuffle within the same nodes
		}
		c.migrations = append(c.migrations, MigrationRecord{
			Partition: p, Epoch: epoch, Adds: adds, Drops: drops,
		})
		queued++
	}
	c.metrics.Gauge("migrate.partitions.pending").Add(int64(queued))
	if queued == 0 && c.ring.Migrating() {
		c.finishEpochLocked()
	}
}

// nameDiff returns the names in a that are not in b, preserving a's order.
func nameDiff(a, b []string) []string {
	inB := make(map[string]bool, len(b))
	for _, n := range b {
		inB[n] = true
	}
	var out []string
	for _, n := range a {
		if !inB[n] {
			out = append(out, n)
		}
	}
	return out
}

// finishEpochLocked commits the migration window: the ring drops the old
// epoch (reads collapse to the new placement) and draining nodes detach
// from the membership. Caller holds memberMu.
func (c *Cluster) finishEpochLocked() {
	c.ring.CommitEpoch()
	for name := range c.draining {
		if node, ok := c.members.Get(name); ok {
			c.members.Remove(name)
			node.SetDown(true)
		}
		delete(c.draining, name)
		delete(c.healthFails, name)
	}
}

// RunMigrations drains the partition-migration queue — the in-process
// stand-in for Swift's object-replicator rebalance pass, reusing the
// repair queue's drain-and-requeue model. Records whose migration fails
// (an unreachable target, an injected migrator kill) stay queued with
// Attempts bumped. When the queue empties, the epoch commits and the
// dual-epoch read window closes. Returns the partitions fully moved this
// pass and the first error.
func (c *Cluster) RunMigrations(ctx context.Context) (int, error) {
	c.memberMu.Lock()
	pending := c.migrations
	c.migrations = nil
	hook := c.migrationHook
	c.memberMu.Unlock()

	moved := 0
	var remaining []MigrationRecord
	var firstErr error
	for i, rec := range pending {
		if err := ctx.Err(); err != nil {
			remaining = append(remaining, pending[i:]...)
			if firstErr == nil {
				firstErr = err
			}
			break
		}
		if err := c.migrateOne(ctx, rec, hook); err != nil {
			rec.Attempts++
			remaining = append(remaining, rec)
			c.metrics.Counter("migrate.partitions.failed").Inc()
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		moved++
		c.metrics.Counter("migrate.partitions.moved").Inc()
		c.metrics.Gauge("migrate.partitions.pending").Add(-1)
	}

	c.memberMu.Lock()
	c.migrations = append(remaining, c.migrations...)
	if len(c.migrations) == 0 && c.ring.Migrating() {
		c.finishEpochLocked()
	}
	c.memberMu.Unlock()
	return moved, firstErr
}

// migrateOne moves one partition: every committed object hashing into it
// is copied onto the partition's new placement (ETag-guarded), the handoff
// is verified against the write quorum, and only then are the dropped
// sources cleared. Any failure aborts the partition BEFORE the source
// deletes — a half-migrated partition is always still fully readable via
// the dual-epoch union, and the next pass resumes idempotently.
func (c *Cluster) migrateOne(ctx context.Context, rec MigrationRecord, hook func(string) error) error {
	var paths []string
	for _, info := range c.reg.AllObjects() {
		p := info.Path()
		if c.ring.Partition(p) == rec.Partition {
			paths = append(paths, p)
		}
	}
	for _, path := range paths {
		if hook != nil {
			if err := hook(path); err != nil {
				return fmt.Errorf("objectstore: migrate partition %d: %w", rec.Partition, err)
			}
		}
		if err := c.migrateObject(ctx, path, rec); err != nil {
			return fmt.Errorf("objectstore: migrate partition %d: %w", rec.Partition, err)
		}
	}
	// Handoff committed for the whole partition: clear the sources that
	// left the placement. Node-level Delete is idempotent and the Store
	// Delete cannot fail; a source that is down (ejected, blacked out) is
	// skipped — after the epoch commits no reader consults it, so a stale
	// leftover replica is unreachable garbage, not a correctness hazard.
	for _, name := range rec.Drops {
		node, ok := c.members.Get(name)
		if !ok {
			continue
		}
		for _, path := range paths {
			_ = node.Delete(ctx, path)
		}
	}
	return nil
}

// migrateObject lands one object on a partition's new placement with the
// registry ETag as the guard against racing writers:
//
//  1. want = the registry-committed ETag. A copy is only ever stored if it
//     matches want, so a truncated read or a stale source can never become
//     a serving replica.
//  2. Targets already holding want are skipped (idempotent resume after a
//     mid-copy kill).
//  3. After the copy pass the registry is re-read. A racing PUT commits to
//     the registry only after writing the NEW placement (writes go to the
//     new epoch), so if the ETag changed, our copy may have overwritten a
//     fresher replica — redo against the new ETag (bounded; each redo
//     needs another racing PUT to have landed mid-pass).
//
// A concurrent DELETE is the inverse race: the path vanishes from the
// registry. The deleter clears the union placement (readNodes), but our
// in-flight copy may land after it — the re-read detects the vanish and
// clears the targets again.
func (c *Cluster) migrateObject(ctx context.Context, path string, rec MigrationRecord) error {
	const maxRedo = 4
	want, ok := c.reg.InfoByPath(path)
	if !ok {
		return nil // deleted since enumeration
	}
	for redo := 0; redo < maxRedo; redo++ {
		if err := c.copyToAdds(ctx, path, want, rec); err != nil {
			return err
		}
		now, ok := c.reg.InfoByPath(path)
		if !ok {
			// Deleted mid-copy: un-land whatever we just wrote.
			for _, name := range rec.Adds {
				if node, mok := c.members.Get(name); mok {
					_ = node.Delete(ctx, path)
				}
			}
			return nil
		}
		if now.ETag == want.ETag {
			return c.verifyHandoff(ctx, path, want.ETag, rec)
		}
		want = now // racing PUT committed; redo against the new version
	}
	return fmt.Errorf("%s: registry kept changing under migration (%d redos)", path, maxRedo)
}

// copyToAdds lands the wanted version on every Add target that does not
// already hold it, reading from the union placement (old epoch included —
// mid-window the only copy may still be on a source).
func (c *Cluster) copyToAdds(ctx context.Context, path string, want ObjectInfo, rec MigrationRecord) error {
	for _, name := range rec.Adds {
		dst, ok := c.members.Get(name)
		if !ok {
			// Target left the membership mid-window (e.g. being drained
			// elsewhere); the epoch's placement will be corrected by the
			// next membership change.
			continue
		}
		if have, err := dst.Head(ctx, path); err == nil && have.ETag == want.ETag {
			continue
		}
		if err := c.copyReplica(ctx, path, want, dst, rec); err != nil {
			return err
		}
	}
	return nil
}

// copyReplica copies one object onto dst from the first source whose bytes
// verify against the wanted ETag. Sources are the union placement minus
// the target itself; a source serving stale or truncated bytes fails the
// guard and the next source is tried.
func (c *Cluster) copyReplica(ctx context.Context, path string, want ObjectInfo, dst *Node, rec MigrationRecord) error {
	cur := c.ring.PartitionNodes(rec.Partition)
	prev := c.ring.PrevPartitionNodes(rec.Partition)
	var lastErr error
	tried := 0
	for _, name := range append(append([]string(nil), cur...), nameDiff(prev, cur)...) {
		if name == dst.Name() {
			continue
		}
		src, ok := c.members.Get(name)
		if !ok {
			continue
		}
		rc, info, err := src.Get(ctx, path, 0, 0, nil)
		if err != nil {
			lastErr = err
			continue
		}
		data, rerr := io.ReadAll(rc)
		rc.Close()
		if rerr != nil {
			lastErr = rerr
			continue
		}
		if info.ETag != want.ETag {
			lastErr = fmt.Errorf("source %s holds stale version of %s", name, path)
			continue
		}
		tried++
		stored, perr := dst.Put(ctx, want, bytes.NewReader(data))
		if perr != nil {
			return fmt.Errorf("copy %s onto %s: %w", path, dst.Name(), perr)
		}
		if stored.ETag != want.ETag {
			// Truncated in flight (injected or real): the guard caught it;
			// remove the bad replica and try the next source.
			_ = dst.Delete(ctx, path)
			lastErr = fmt.Errorf("copy %s onto %s: stored etag mismatch", path, dst.Name())
			continue
		}
		c.metrics.Counter("migrate.objects.copied").Inc()
		return nil
	}
	if lastErr == nil {
		lastErr = ErrNotFound
	}
	return fmt.Errorf("copy %s onto %s: no verifiable source: %w", path, dst.Name(), lastErr)
}

// verifyHandoff checks the quorum commit of one object's move: at least a
// write quorum of the NEW placement must hold the wanted version before
// the sources may be cleared. Carried-over replicas that are missing the
// object (they were already under-repair before the move) don't block the
// handoff as long as quorum holds — that durability gap belongs to the
// repair queue, not the migration.
func (c *Cluster) verifyHandoff(ctx context.Context, path string, etag string, rec MigrationRecord) error {
	nodes := c.ring.PartitionNodes(rec.Partition)
	holding := 0
	for _, name := range nodes {
		node, ok := c.members.Get(name)
		if !ok {
			continue
		}
		if have, err := node.Head(ctx, path); err == nil && have.ETag == etag {
			holding++
		}
	}
	if quorum := writeQuorum(len(nodes)); holding < quorum {
		return fmt.Errorf("handoff %s: %d/%d new-placement replicas hold %s (quorum %d)",
			path, holding, len(nodes), etag, quorum)
	}
	return nil
}

// AllObjects snapshots every committed object's metadata across all
// accounts and containers, sorted by ring path — the migrator's work list.
func (r *Registry) AllObjects() []ObjectInfo {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []ObjectInfo
	for _, acc := range r.accounts {
		for _, cs := range acc.containers {
			for _, info := range cs.objects {
				out = append(out, info)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path() < out[j].Path() })
	return out
}

// InfoByPath resolves a "/account/container/object" ring key to its
// committed metadata.
func (r *Registry) InfoByPath(path string) (ObjectInfo, bool) {
	parts := strings.SplitN(strings.TrimPrefix(path, "/"), "/", 3)
	if len(parts) != 3 {
		return ObjectInfo{}, false
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	acc, ok := r.accounts[parts[0]]
	if !ok {
		return ObjectInfo{}, false
	}
	cs, ok := acc.containers[parts[1]]
	if !ok {
		return ObjectInfo{}, false
	}
	info, ok := cs.objects[parts[2]]
	return info, ok
}
