/**
 * @file
 * Worker-pool sizing helpers and the one pool, parallelFor().
 *
 * Every thread pool in the simulator (router calibration, shared
 * cost-cache warming) sizes itself from a user request with a
 * hardware-probe fallback.  The standard allows
 * std::thread::hardware_concurrency() to return 0 ("not
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
#include <exception>
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

} // namespace hermes

#endif // HERMES_COMMON_THREADS_HH
