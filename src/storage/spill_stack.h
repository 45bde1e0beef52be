// A stack with bounded in-memory residency that spills to the simulated
// disk.
//
// The hierarchical-selection algorithms (Figs. 2, 4, 5, 6) push one stack
// entry per input entry in the worst case (a root-to-leaf chain), so the
// stack itself can exceed main memory. The crux of the Theorem 5.1 proof
// is that "although particular stack entries may be swapped out (and
// eventually re-fetched) multiple times ... the overall I/O is O(|L1|/B +
// |L2|/B)": every spilled batch is written once and read back at most once
// before being discarded, so stack traffic is amortized O(items/B) pages.
// SpillableStack realizes exactly that policy: a fixed in-memory window;
// on overflow the bottom half is written out as one run; on underflow the
// most recent spilled batch is reloaded and its pages freed.

#ifndef NDQ_STORAGE_SPILL_STACK_H_
#define NDQ_STORAGE_SPILL_STACK_H_

#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "storage/run.h"

namespace ndq {

template <typename T>
class SpillableStack {
 public:
  using SerializeFn = std::function<void(const T&, std::string*)>;
  using DeserializeFn = std::function<Result<T>(std::string_view)>;

  /// `window` is the maximum number of items held in memory (>= 2). For
  /// the amortized O(items/B) I/O bound to hold, size it so that half a
  /// window of serialized items spans at least one disk page (the spill
  /// batch is the unit of transfer). `format` is the spill batches' page
  /// format: pass kKeyPrefix when serialized items lead with a PutString
  /// sort key, so spill batches get key-aware prefix compression.
  SpillableStack(Disk* disk, size_t window, SerializeFn ser,
                 DeserializeFn deser,
                 PageFormat format = PageFormat::kPrefix)
      : disk_(disk),
        window_(window < 2 ? 2 : window),
        ser_(std::move(ser)),
        deser_(std::move(deser)),
        format_(format) {}

  ~SpillableStack() {
    for (Run& batch : batches_) FreeRun(disk_, &batch);
  }

  SpillableStack(const SpillableStack&) = delete;
  SpillableStack& operator=(const SpillableStack&) = delete;

  bool Empty() const { return window_items_.empty() && batches_.empty(); }

  size_t Size() const { return size_; }

  Status Push(T item) {
    if (window_items_.size() >= window_) NDQ_RETURN_IF_ERROR(SpillBottom());
    window_items_.push_back(std::move(item));
    ++size_;
    if (size_ > peak_size_) peak_size_ = size_;
    return Status::OK();
  }

  /// The top item; requires a non-empty in-memory window (guaranteed after
  /// any successful Push/Pop on a non-empty stack).
  T& Top() { return window_items_.back(); }

  Result<T> Pop() {
    if (window_items_.empty()) {
      if (batches_.empty()) return Status::OutOfRange("pop from empty stack");
      NDQ_RETURN_IF_ERROR(ReloadBatch());
    }
    T item = std::move(window_items_.back());
    window_items_.pop_back();
    if (size_ > 0) --size_;
    // Keep Top() valid: if the window drained but spilled batches remain,
    // reload eagerly.
    if (window_items_.empty() && !batches_.empty()) {
      NDQ_RETURN_IF_ERROR(ReloadBatch());
    }
    return item;
  }

  /// Number of spill / reload events (for tests).
  size_t spill_count() const { return spill_count_; }

  /// Largest item count ever held (execution tracing: the worst
  /// root-to-leaf chain the operator encountered).
  size_t peak_size() const { return peak_size_; }

 private:
  Status SpillBottom() {
    size_t n = window_items_.size() / 2;
    if (n == 0) n = 1;
    RunWriter writer(disk_, format_);
    std::string buf;
    for (size_t i = 0; i < n; ++i) {
      buf.clear();
      ser_(window_items_[i], &buf);
      NDQ_RETURN_IF_ERROR(writer.Add(buf));
    }
    NDQ_ASSIGN_OR_RETURN(Run run, writer.Finish());
    batches_.push_back(std::move(run));
    window_items_.erase(window_items_.begin(), window_items_.begin() + n);
    ++spill_count_;
    return Status::OK();
  }

  Status ReloadBatch() {
    // Read the batch IN PLACE: the spilled pages stay live (and owned by
    // batches_) until every item has deserialized and been applied to the
    // window. A read or deserialize error therefore leaves the stack
    // exactly as it was — the batch survives for a retry — instead of
    // losing the remaining items with their pages already freed.
    RunReader reader(disk_, batches_.back());
    std::deque<T> reloaded;
    std::string rec;
    while (true) {
      NDQ_ASSIGN_OR_RETURN(bool more, reader.Next(&rec));
      if (!more) break;
      NDQ_ASSIGN_OR_RETURN(T item, deser_(rec));
      reloaded.push_back(std::move(item));
    }
    // Reloaded items sit *below* whatever is still in the window.
    for (auto it = reloaded.rbegin(); it != reloaded.rend(); ++it) {
      window_items_.push_front(std::move(*it));
    }
    Run run = std::move(batches_.back());
    batches_.pop_back();
    ++spill_count_;
    // The batch is applied; only now give its pages back. A failed Free
    // no longer endangers any data, so the error is purely advisory.
    return FreeRun(disk_, &run);
  }

  Disk* disk_;
  size_t window_;
  SerializeFn ser_;
  DeserializeFn deser_;
  PageFormat format_ = PageFormat::kPrefix;
  std::deque<T> window_items_;  // front = deepest in-memory item
  std::vector<Run> batches_;    // stack of spilled batches, back = newest
  size_t spill_count_ = 0;
  size_t size_ = 0;
  size_t peak_size_ = 0;
};

}  // namespace ndq

#endif  // NDQ_STORAGE_SPILL_STACK_H_
