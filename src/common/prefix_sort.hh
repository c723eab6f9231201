/**
 * @file
 * prefixSort(): the first k places of std::sort's result, in place,
 * without sorting the rest.
 *
 * Simulation outputs depend on where std::sort puts equal keys (the
 * online mapper's swap boundary is one such place), so a selection
 * that merely finds the k smallest keys would change them.  This
 * helper runs libstdc++'s own introsort steps on the array: the
 * median-of-three pivot moved to the front, the unguarded Hoare
 * partition, the 16-element threshold and the 2*floor(log2 n) depth
 * limit with its heap-sort fallback, and the final insertion sort.
 * Introsort never moves an element across a partition cut, neither
 * while partitioning nor in the final insertion pass (every element
 * left of a cut is not greater than every element right of it).  So
 * a part whose cut lies at or past k cannot reach [first, first + k)
 * and is skipped, and insertion-sorting [first, P), P the lowest
 * skipped cut, leaves [first, first + k) exactly as std::sort would,
 * ties included.  The elements past first + k end up in an
 * unspecified order.
 *
 * The steps are libstdc++'s; the PrefixSort tests in test_common
 * check the result against the std::sort the build links.
 */

#ifndef HERMES_COMMON_PREFIX_SORT_HH
#define HERMES_COMMON_PREFIX_SORT_HH

#include <algorithm>
#include <bit>
#include <cstddef>
#include <iterator>
#include <utility>

namespace hermes {

namespace detail {

/** Parts at most this long are left to the final insertion sort. */
inline constexpr std::ptrdiff_t kSortThreshold = 16;

template <typename It, typename Compare>
void
moveMedianToFirst(It result, It a, It b, It c, Compare &comp)
{
    if (comp(*a, *b)) {
        if (comp(*b, *c))
            std::iter_swap(result, b);
        else if (comp(*a, *c))
            std::iter_swap(result, c);
        else
            std::iter_swap(result, a);
    } else if (comp(*a, *c)) {
        std::iter_swap(result, a);
    } else if (comp(*b, *c)) {
        std::iter_swap(result, c);
    } else {
        std::iter_swap(result, b);
    }
}

/** Partition [first + 1, last) around the pivot moved to `first`. */
template <typename It, typename Compare>
It
partitionAtPivot(It first, It last, Compare &comp)
{
    const It mid = first + (last - first) / 2;
    moveMedianToFirst(first, first + 1, mid, last - 1, comp);
    const It pivot = first;
    ++first;
    while (true) {
        while (comp(*first, *pivot))
            ++first;
        --last;
        while (comp(*pivot, *last))
            --last;
        if (!(first < last))
            return first;
        std::iter_swap(first, last);
        ++first;
    }
}

/**
 * The introsort loop, skipping every right part that starts at or
 * past `end`; `lowest_cut` takes the lowest start skipped.
 */
template <typename It, typename Compare>
void
introsortPrefix(It first, It last, std::ptrdiff_t depth_limit, It end,
                It &lowest_cut, Compare &comp)
{
    while (last - first > kSortThreshold) {
        if (depth_limit == 0) {
            std::partial_sort(first, last, last, comp);
            return;
        }
        --depth_limit;
        const It cut = partitionAtPivot(first, last, comp);
        if (cut < end)
            introsortPrefix(cut, last, depth_limit, end, lowest_cut,
                            comp);
        else
            lowest_cut = std::min(lowest_cut, cut);
        last = cut;
    }
}

} // namespace detail

/**
 * Leave [first, first + min(k, last - first)) exactly as
 * std::sort(first, last, comp) would; the rest of the range is
 * permuted in an unspecified way.
 */
template <typename It, typename Compare>
void
prefixSort(It first, It last, std::size_t k, Compare comp)
{
    const std::ptrdiff_t n = last - first;
    if (n == 0 || k == 0)
        return;
    const It end = first + std::min(static_cast<std::ptrdiff_t>(k), n);
    It lowest_cut = last;
    const auto depth_limit = static_cast<std::ptrdiff_t>(
        2 * (std::bit_width(static_cast<std::size_t>(n)) - 1));
    detail::introsortPrefix(first, last, depth_limit, end, lowest_cut,
                            comp);
    // Plain insertion sort: the same result as std::sort's guarded and
    // unguarded passes, which differ only in their bounds checks.
    for (It i = first + 1; i < lowest_cut; ++i) {
        auto value = std::move(*i);
        It hole = i;
        while (hole != first) {
            const It prev = hole - 1;
            if (!comp(value, *prev))
                break;
            *hole = std::move(*prev);
            hole = prev;
        }
        *hole = std::move(value);
    }
}

} // namespace hermes

#endif // HERMES_COMMON_PREFIX_SORT_HH
