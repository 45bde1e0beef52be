#include "storage/external_sort.h"

#include <algorithm>
#include <memory>
#include <queue>

#include "core/head64.h"

namespace ndq {
namespace {

struct HeapItem {
  std::string record;
  std::string key;
  uint64_t head;  // ExtractHead64(key), cached at refill
  size_t source;
};

struct HeapCmp {
  bool operator()(const HeapItem& a, const HeapItem& b) const {
    // min-heap; head words decide almost every sift comparison.
    if (a.head != b.head) return a.head > b.head;
    return a.key > b.key;
  }
};

// k-way merges one group of sorted runs into a fresh run (inputs untouched).
Result<Run> MergeGroup(Disk* disk, const RecordKeyFn& key_fn,
                       const Run* runs, size_t count, PageFormat format) {
  std::vector<std::unique_ptr<RunReader>> readers;
  readers.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    readers.push_back(std::make_unique<RunReader>(disk, runs[i]));
  }
  std::priority_queue<HeapItem, std::vector<HeapItem>, HeapCmp> heap;
  auto refill = [&](size_t src) -> Status {
    std::string rec;
    NDQ_ASSIGN_OR_RETURN(bool more, readers[src]->Next(&rec));
    if (more) {
      std::string key(key_fn(rec));
      uint64_t head = ExtractHead64(key);
      heap.push(HeapItem{std::move(rec), std::move(key), head, src});
    }
    return Status::OK();
  };
  for (size_t i = 0; i < readers.size(); ++i) NDQ_RETURN_IF_ERROR(refill(i));

  RunWriter writer(disk, format);
  while (!heap.empty()) {
    HeapItem top = heap.top();
    heap.pop();
    NDQ_RETURN_IF_ERROR(writer.Add(top.record));
    NDQ_RETURN_IF_ERROR(refill(top.source));
  }
  return writer.Finish();
}

// Repeatedly merges `runs` fan_in at a time until one remains; consumes the
// inputs. Increments *passes per merge pass. On error every input and
// intermediate run is freed before the status propagates.
Result<Run> MergeToOne(Disk* disk, const RecordKeyFn& key_fn,
                       std::vector<Run> runs, size_t fan_in,
                       PageFormat format, size_t* passes) {
  if (runs.empty()) {
    RunWriter w(disk, format);
    return w.Finish();
  }
  auto free_all = [&](std::vector<Run>* rs) {
    for (Run& r : *rs) (void)FreeRun(disk, &r);
  };
  while (runs.size() > 1) {
    ++*passes;
    std::vector<Run> next;
    for (size_t i = 0; i < runs.size(); i += fan_in) {
      size_t n = std::min(fan_in, runs.size() - i);
      Result<Run> merged = MergeGroup(disk, key_fn, &runs[i], n, format);
      if (!merged.ok()) {
        free_all(&runs);
        free_all(&next);
        return merged.status();
      }
      for (size_t j = i; j < i + n; ++j) {
        Status s = FreeRun(disk, &runs[j]);
        if (!s.ok()) {
          free_all(&runs);
          free_all(&next);
          (void)FreeRun(disk, &*merged);
          return s;
        }
      }
      next.push_back(merged.TakeValue());
    }
    runs = std::move(next);
  }
  return std::move(runs[0]);
}

}  // namespace

ExternalSorter::ExternalSorter(Disk* disk, RecordKeyFn key_fn,
                               ExternalSortOptions options)
    : disk_(disk), key_fn_(std::move(key_fn)), options_(options) {}

ExternalSorter::~ExternalSorter() {
  // Generated runs not yet handed to a (successful) Finish() are ours.
  for (Run& r : runs_) (void)FreeRun(disk_, &r);
}

Status ExternalSorter::Add(std::string_view record) {
  if (finished_) return Status::Internal("Add after Finish");
  buffer_.emplace_back(record);
  buffered_bytes_ += record.size();
  if (buffered_bytes_ >= options_.memory_budget) {
    NDQ_RETURN_IF_ERROR(SpillBuffer());
  }
  return Status::OK();
}

Status ExternalSorter::SpillBuffer() {
  if (buffer_.empty()) return Status::OK();
  // Sort an index array with precomputed head words instead of the records
  // themselves: most comparisons resolve on the head compare without
  // re-extracting keys, and records are never moved.
  struct SortItem {
    uint64_t head;
    uint32_t idx;
  };
  std::vector<SortItem> order;
  order.reserve(buffer_.size());
  for (uint32_t i = 0; i < buffer_.size(); ++i) {
    order.push_back(SortItem{ExtractHead64(key_fn_(buffer_[i])), i});
  }
  std::sort(order.begin(), order.end(),
            [this](const SortItem& a, const SortItem& b) {
              if (a.head != b.head) return a.head < b.head;
              return key_fn_(buffer_[a.idx]) < key_fn_(buffer_[b.idx]);
            });
  RunWriter writer(disk_, options_.format);
  for (const SortItem& it : order) {
    NDQ_RETURN_IF_ERROR(writer.Add(buffer_[it.idx]));
  }
  NDQ_ASSIGN_OR_RETURN(Run run, writer.Finish());
  runs_.push_back(std::move(run));
  buffer_.clear();
  buffered_bytes_ = 0;
  return Status::OK();
}

Result<Run> ExternalSorter::Finish() {
  if (finished_) return Status::Internal("double Finish");
  finished_ = true;
  merge_passes_ = 0;
  NDQ_RETURN_IF_ERROR(SpillBuffer());
  std::vector<Run> runs = std::move(runs_);
  runs_.clear();
  return MergeToOne(disk_, key_fn_, std::move(runs), options_.fan_in,
                    options_.format, &merge_passes_);
}

}  // namespace ndq
