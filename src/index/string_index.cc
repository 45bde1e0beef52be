#include "index/string_index.h"

#include <algorithm>

namespace ndq {

void SuffixIndex::Add(std::string_view value, uint64_t id) {
  docs_.push_back(Doc{std::string(value), id});
  built_ = false;
}

void SuffixIndex::Build() {
  suffixes_.clear();
  for (uint32_t d = 0; d < docs_.size(); ++d) {
    for (uint32_t off = 0; off < docs_[d].text.size(); ++off) {
      suffixes_.push_back(Suffix{d, off});
    }
  }
  std::sort(suffixes_.begin(), suffixes_.end(),
            [this](const Suffix& a, const Suffix& b) {
              return SuffixText(a) < SuffixText(b);
            });
  built_ = true;
}

Result<std::vector<uint64_t>> SuffixIndex::Search(
    std::string_view needle) const {
  if (!built_) return Status::Internal("SuffixIndex::Build not called");
  if (needle.empty()) {
    std::vector<uint64_t> out;
    for (const Doc& d : docs_) out.push_back(d.id);
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  }
  // Binary search the band of suffixes starting with `needle`.
  auto lo = std::lower_bound(suffixes_.begin(), suffixes_.end(), needle,
                             [this](const Suffix& s, std::string_view n) {
                               return SuffixText(s) < n;
                             });
  std::vector<uint64_t> out;
  for (auto it = lo; it != suffixes_.end(); ++it) {
    std::string_view text = SuffixText(*it);
    if (text.substr(0, needle.size()) != needle) break;
    out.push_back(docs_[it->doc].id);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace ndq
