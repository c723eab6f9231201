/**
 * @file
 * ReplicaIndex: an incremental argmin over one key per replica.
 *
 * A tournament (winner) tree over (key, replica index): every
 * internal node holds the index of the better of its two children,
 * where "better" is the smaller key and, on equal keys, the lower
 * replica index.  So argmin() is exactly the replica a linear
 * first-minimum scan would pick —
 *
 *     for (r = 0; r < n; ++r) if (key[r] < best) best = key[r], pick = r;
 *
 * — answered in O(1), while set() re-plays one leaf-to-root path in
 * O(log n) (stopping early once a node's winner is unaffected).
 * A replica with key kAbsent (+infinity) is out of the ranking; a
 * max-ranking stores negated keys (a maximum with lowest-index ties
 * is the minimum of the negations with lowest-index ties).
 *
 * The control policies own one index each and keep it current from
 * the kernel's change list (ControlPolicy::onReplicasChanged), so a
 * routing or stealing decision costs O(log replicas) instead of a
 * scan over the whole fleet.
 */

#ifndef HERMES_SCHED_REPLICA_INDEX_HH
#define HERMES_SCHED_REPLICA_INDEX_HH

#include <cstdint>
#include <limits>
#include <vector>

namespace hermes::sched {

class ReplicaIndex
{
  public:
    /** The key of a replica outside the ranking. */
    static constexpr double kAbsent =
        std::numeric_limits<double>::infinity();

    /** Replicas indexed (keys 0..size()-1). */
    std::uint32_t
    size() const
    {
        return size_;
    }

    /** Grow to `n` replicas; new ones start kAbsent. */
    void
    resize(std::uint32_t n)
    {
        if (n <= size_)
            return;
        size_ = n;
        if (n <= capacity_)
            return;
        std::uint32_t capacity = capacity_ == 0 ? 2 : capacity_;
        while (capacity < n)
            capacity *= 2;
        keys_.resize(capacity, kAbsent);
        winner_.assign(capacity, 0);
        capacity_ = capacity;
        // Rebuild bottom-up: node i's children are 2i and 2i+1,
        // leaves sit at capacity_ + replica.
        for (std::uint32_t node = capacity_ - 1; node >= 1; --node)
            winner_[node] = better(child(2 * node), child(2 * node + 1));
    }

    /** Set one replica's key (grows the index when needed). */
    void
    set(std::uint32_t replica, double key)
    {
        // Most updates leave the key as it was: keep that check
        // small enough to inline.
        if (replica >= size_ || keys_[replica] != key)
            replay(replica, key);
    }

    /** The key of `replica` (kAbsent beyond size()). */
    double
    key(std::uint32_t replica) const
    {
        return replica < size_ ? keys_[replica] : kAbsent;
    }

    /**
     * The replica with the smallest key, lowest index on ties; or
     * size() when every key is kAbsent (or the index is empty).
     */
    std::uint32_t
    argmin() const
    {
        if (size_ == 0)
            return 0;
        const std::uint32_t best = winner_[1];
        return keys_[best] < kAbsent ? best : size_;
    }

    /** argmin() with `skip` left out of the ranking. */
    std::uint32_t
    argminExcept(std::uint32_t skip)
    {
        const std::uint32_t best = argmin();
        if (best != skip || best == size_)
            return best;
        const double saved = keys_[skip];
        set(skip, kAbsent);
        const std::uint32_t second = argmin();
        set(skip, saved);
        return second;
    }

  private:
    /** Store a changed key and replay its leaf-to-root path. */
    void
    replay(std::uint32_t replica, double key)
    {
        resize(replica + 1);
        keys_[replica] = key;
        for (std::uint32_t node = (capacity_ + replica) / 2; node >= 1;
             node /= 2) {
            const std::uint32_t before = winner_[node];
            const std::uint32_t after =
                better(child(2 * node), child(2 * node + 1));
            // An unchanged winner other than `replica` has an
            // unchanged key: nothing above can change either.
            if (after == before && after != replica)
                break;
            winner_[node] = after;
        }
    }

    /** Winning leaf of tree node `node` (a leaf is its own winner). */
    std::uint32_t
    child(std::uint32_t node) const
    {
        return node >= capacity_ ? node - capacity_ : winner_[node];
    }

    /** The better of two leaves; `left` < `right` by construction. */
    std::uint32_t
    better(std::uint32_t left, std::uint32_t right) const
    {
        return keys_[right] < keys_[left] ? right : left;
    }

    std::uint32_t size_ = 0;
    std::uint32_t capacity_ = 0;       ///< Leaves (a power of two).
    std::vector<double> keys_;         ///< Per leaf; padding kAbsent.
    std::vector<std::uint32_t> winner_; ///< Per internal node 1..cap-1.
};

} // namespace hermes::sched

#endif // HERMES_SCHED_REPLICA_INDEX_HH
