#include "harness/worker_pool.hh"

#include <atomic>
#include <exception>
#include <thread>
#include <vector>

#include "common/logging.hh"

namespace krisp
{
namespace harness
{

WorkerPool::WorkerPool(unsigned jobs) : jobs_(jobs > 0 ? jobs : 1)
{
}

void
WorkerPool::forEachIndex(std::size_t count,
                         const std::function<void(std::size_t)> &task)
{
    panic_if(!task, "WorkerPool needs a task");
    if (count == 0)
        return;

    std::vector<std::exception_ptr> errors(count);
    auto worker = [&](std::atomic<std::size_t> &next) {
        for (std::size_t i = next.fetch_add(1); i < count;
             i = next.fetch_add(1)) {
            try {
                task(i);
            } catch (...) {
                errors[i] = std::current_exception();
            }
        }
    };

    const auto threads = static_cast<std::size_t>(jobs_) < count
                             ? static_cast<std::size_t>(jobs_)
                             : count;
    std::atomic<std::size_t> next{0};
    if (threads <= 1) {
        worker(next);
    } else {
        std::vector<std::thread> pool;
        pool.reserve(threads);
        for (std::size_t t = 0; t < threads; ++t)
            pool.emplace_back([&] { worker(next); });
        for (auto &th : pool)
            th.join();
    }

    for (std::size_t i = 0; i < count; ++i) {
        if (errors[i])
            std::rethrow_exception(errors[i]);
    }
}

} // namespace harness
} // namespace krisp
