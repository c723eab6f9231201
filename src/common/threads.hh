/**
 * @file
 * Worker-pool sizing helpers, the one job pool, parallelFor(), and the
 * one producer/consumer pipeline, pipelineFor().
 *
 * Every thread pool in the simulator (router calibration, shared
 * cost-cache warming, the layer-parallel Hermes record) sizes itself
 * from a user request with a hardware-probe fallback.  The standard
 * allows std::thread::hardware_concurrency() to return 0 ("not
 * computable"); these helpers clamp that case in exactly one place
 * so no caller can ever end up with a zero-thread pool or divide by
 * zero.  The clamp logic is pure (the probe value is a parameter)
 * so the zero-hardware path stays unit-testable without mocking the
 * standard library.
 */

#ifndef HERMES_COMMON_THREADS_HH
#define HERMES_COMMON_THREADS_HH

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace hermes {

/**
 * std::thread::hardware_concurrency(), clamped away from the
 * standard-sanctioned 0 return so callers can size pools (and
 * divide) without a special case.  Always >= 1.
 */
inline unsigned
hardwareThreads() noexcept
{
    const unsigned hardware = std::thread::hardware_concurrency();
    return hardware == 0 ? 1 : hardware;
}

/**
 * The thread count a pool should aim for: the explicit request when
 * positive, otherwise the probed hardware parallelism — which is
 * itself clamped to 1 in case the probe reported "unknown" as 0.
 * Always >= 1.
 */
inline unsigned
effectiveThreads(std::uint32_t requested, unsigned probed) noexcept
{
    if (requested > 0)
        return requested;
    return probed == 0 ? 1 : probed;
}

/**
 * Workers to actually spawn over `jobs` independent jobs: the
 * effective thread count capped by the job count (an idle worker is
 * pure overhead).  Returns 0 only when there is no work at all;
 * callers treat <= 1 as "run serially".
 */
inline std::size_t
resolveWorkerCount(std::uint32_t requested, unsigned probed,
                   std::size_t jobs) noexcept
{
    return std::min<std::size_t>(jobs,
                                 effectiveThreads(requested, probed));
}

/**
 * Run fn(job) once for every job in [0, jobs).  With `workers` <= 1
 * the jobs run inline, in order, on the caller; otherwise `workers`
 * threads claim jobs from a shared cursor in no fixed order, so each
 * job must touch only state no other job touches.  A throwing job
 * stops its worker from claiming more; once every worker has
 * joined, the exception of the lowest-numbered failed worker is
 * rethrown on the caller.
 */
template <typename Fn>
void
parallelFor(std::size_t workers, std::size_t jobs, Fn &&fn)
{
    if (workers <= 1) {
        for (std::size_t job = 0; job < jobs; ++job)
            fn(job);
        return;
    }
    std::atomic<std::size_t> next{0};
    std::vector<std::exception_ptr> errors(workers);
    // jthreads, so a failed spawn still joins the workers already
    // running before `next` and `errors` go out of scope.
    std::vector<std::jthread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) {
        pool.emplace_back([&, w] {
            try {
                for (std::size_t job = next.fetch_add(1); job < jobs;
                     job = next.fetch_add(1))
                    fn(job);
            } catch (...) {
                errors[w] = std::current_exception();
            }
        });
    }
    for (std::jthread &thread : pool)
        thread.join();
    for (const std::exception_ptr &error : errors) {
        if (error)
            std::rethrow_exception(error);
    }
}

/**
 * A bounded one-producer pipeline over `items` items, for work whose
 * items must be made in order on one thread (a serial RNG stream)
 * but whose use splits into independent lanes.  produce(item, slot)
 * runs on the caller for item = 0, 1, ..., items - 1, in order, and
 * fills ring slot `slot` (item % depth); consume(lane, item, slot)
 * then runs once for every lane in [0, lanes), each lane on its own
 * thread and taking the items in order.  A slot goes back to
 * produce() only once every lane has consumed the item it held, so
 * at most `depth` items are in flight and lanes read a slot in place.
 * Lanes must touch disjoint state.
 *
 * With `lanes` <= 1 nothing is spawned: each item runs inline,
 * produce(item, 0) then consume(0, item, 0), as parallelFor does at
 * one worker.  Errors as in parallelFor: a throwing lane stops and
 * the producer stops waiting for it; a throwing produce() stops
 * every lane before its next item; once all have joined, the
 * producer's exception, or else the lowest-numbered failed lane's,
 * is rethrown on the caller.
 */
template <typename Produce, typename Consume>
void
pipelineFor(std::size_t lanes, std::size_t depth, std::size_t items,
            Produce &&produce, Consume &&consume)
{
    if (lanes <= 1) {
        for (std::size_t item = 0; item < items; ++item) {
            produce(item, std::size_t{0});
            consume(std::size_t{0}, item, std::size_t{0});
        }
        return;
    }
    depth = std::max<std::size_t>(depth, 1);
    std::mutex mutex; // Guards published, stop and done.
    std::condition_variable produced;
    std::condition_variable consumed;
    std::size_t published = 0;
    bool stop = false;
    // Items each lane has finished; `items` once it failed.
    std::vector<std::size_t> done(lanes, 0);
    std::vector<std::exception_ptr> errors(lanes);
    std::exception_ptr producer_error;
    const auto finish = [&](std::size_t lane, std::size_t count) {
        {
            const std::lock_guard<std::mutex> lock(mutex);
            done[lane] = count;
        }
        consumed.notify_one();
    };
    const auto lane_loop = [&](std::size_t lane) {
        try {
            for (std::size_t item = 0; item < items; ++item) {
                {
                    std::unique_lock<std::mutex> lock(mutex);
                    produced.wait(lock, [&] {
                        return stop || published > item;
                    });
                    if (stop)
                        return;
                }
                consume(lane, item, item % depth);
                finish(lane, item + 1);
            }
        } catch (...) {
            errors[lane] = std::current_exception();
            finish(lane, items);
        }
    };
    {
        // Declared before the spawns, so the lanes join (on scope
        // exit) only after a failed producer has released them.
        std::vector<std::jthread> pool;
        try {
            pool.reserve(lanes);
            for (std::size_t lane = 0; lane < lanes; ++lane)
                pool.emplace_back(lane_loop, lane);
            for (std::size_t item = 0; item < items; ++item) {
                if (item >= depth) {
                    std::unique_lock<std::mutex> lock(mutex);
                    consumed.wait(lock, [&] {
                        return std::all_of(
                            done.begin(), done.end(),
                            [&](std::size_t count) {
                                return count + depth > item;
                            });
                    });
                }
                produce(item, item % depth);
                {
                    const std::lock_guard<std::mutex> lock(mutex);
                    published = item + 1;
                }
                produced.notify_all();
            }
        } catch (...) {
            producer_error = std::current_exception();
            {
                const std::lock_guard<std::mutex> lock(mutex);
                stop = true;
            }
            produced.notify_all();
        }
    }
    if (producer_error)
        std::rethrow_exception(producer_error);
    for (const std::exception_ptr &error : errors) {
        if (error)
            std::rethrow_exception(error);
    }
}

} // namespace hermes

#endif // HERMES_COMMON_THREADS_HH
