// tslint-fixture: worker-capture-purity
// The shared dual of worker_shard_slots.cc: a subscript does NOT make a
// receiver slot-owned when nothing worker-local indexes it. Writing a shared
// shard map through a captured key or a fixed stripe from inside a worker is
// an interleaving-dependent mutation of state every worker shares — in a
// ThreadPool worker it must trip. The slot writes at the end must not.
namespace fixture {

void PoisonShards(ThreadPool& pool, Shard* shards, Slot* slots, std::size_t n,
                  std::size_t key) {
  pool.ParallelFor(n, [&](std::size_t i) {
    shards[key].entries = 0;       // WRONG: captured key indexes shared map
    shards[kHotStripe].hits += 1;  // WRONG: fixed stripe, shared across workers
    ++shards[key].pins;            // WRONG: shared increment behind a subscript
    shards[key].misses++;          // WRONG: postfix through a shared subscript
    slots[i].checksum = Checksum(shards[i]);  // correct: disjoint slot
  });
}

}  // namespace fixture
