// A small fork/join thread pool for intra-query parallelism.
//
// The evaluator spawns one task per independent operand subtree and joins
// at the operator (exec/parallel_evaluator.h), and the shard fleet fans
// each leaf's shard fetches out on the same pool (dist/distributed.cc).
// The pool is deliberately work-stealing-free: one shared FIFO queue
// under one mutex. What makes nested fork/join deadlock-free is HELPING:
// a thread waiting on its TaskGroup pops that group's not-yet-started
// tasks from the shared queue and runs them itself, so every blocked waiter
// either makes progress on its own children or is waiting on a task that
// is actually running somewhere. Query-operand tasks are coarse (whole
// subtrees doing page I/O), so queue contention is irrelevant.

#ifndef NDQ_EXEC_THREAD_POOL_H_
#define NDQ_EXEC_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ndq {

class ThreadPool {
 public:
  /// `parallelism` is the total number of threads that can make progress
  /// at once: the calling thread plus parallelism-1 workers. A pool of
  /// parallelism <= 1 spawns no workers (TaskGroup::Run executes inline).
  explicit ThreadPool(size_t parallelism);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t parallelism() const { return workers_.size() + 1; }

  /// Stable id of the calling thread within any pool: 0 for non-worker
  /// threads (the query's calling thread), 1..N for pool workers. Used by
  /// OpTrace to record which thread evaluated each plan node.
  static uint32_t current_worker_id();

  /// \brief One fork/join scope: Run() forks, Wait() joins (helping).
  ///
  /// The group must outlive its tasks; Wait() (also called by the
  /// destructor) blocks until every Run() task has finished, executing
  /// queued tasks of this group itself while it waits.
  class TaskGroup {
   public:
    /// A null pool (or a pool with no workers) makes Run() execute the
    /// task inline — the degenerate sequential mode.
    explicit TaskGroup(ThreadPool* pool);
    ~TaskGroup();

    TaskGroup(const TaskGroup&) = delete;
    TaskGroup& operator=(const TaskGroup&) = delete;

    void Run(std::function<void()> fn);
    void Wait();

   private:
    friend class ThreadPool;
    ThreadPool* pool_;
    size_t pending_ = 0;  // guarded by pool_->mu_
  };

 private:
  struct Task {
    std::function<void()> fn;
    TaskGroup* group;
  };

  void WorkerLoop(uint32_t id);
  /// Runs `task` outside the lock and retires it; `lock` is held on entry
  /// and re-acquired before returning.
  void RunTask(Task task, std::unique_lock<std::mutex>* lock);

  std::mutex mu_;
  std::condition_variable work_cv_;  // workers: queue non-empty or stop
  std::condition_variable done_cv_;  // waiters: some group hit pending==0
  std::deque<Task> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace ndq

#endif  // NDQ_EXEC_THREAD_POOL_H_
