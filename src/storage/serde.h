// Byte-level record serialization used by runs, the entry store and the
// spillable stack: the page formats, order-preserving keys, and
// the canonical Entry wire format. The primitives (varints, strings,
// typed values) are in core/wire.h.

#ifndef NDQ_STORAGE_SERDE_H_
#define NDQ_STORAGE_SERDE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "core/entry.h"
#include "core/status.h"
#include "core/wire.h"

namespace ndq {

// ---------------------------------------------------------------------------
// Page format (prefix compression)
// ---------------------------------------------------------------------------

/// On-disk framing of the records inside a run's pages. Every run is
/// prefix-compressed; what a record holds picks the format. The format is
/// carried PER RUN (in Run metadata and segment manifests), so readers
/// never guess.
///
///   kPrefix    — each record prefix-compressed against the previous one:
///                varint(shared) varint(suffix_len) suffix. For opaque
///                records (labeled/annotated runs); RunWriter's default.
///   kKeyPrefix — key-aware compression for records whose FIRST field is a
///                length-prefixed sort key (serialized entries, pair
///                records, spill-stack items). The key and the remainder
///                are compressed independently against the previous
///                record's, so differing key lengths (whose varint prefix
///                would defeat kPrefix at byte 0) still share their DN
///                prefix:
///                varint(shared_key) varint(key_suffix_len)
///                varint(shared_rest) varint(rest_suffix_len)
///                key_suffix rest_suffix.
///
/// Writers emit a RESTART (all shared counts forced to 0) for the first
/// record, every kRestartInterval records, and — for seekable runs
/// (RunWriter::set_page_restarts, used by the entry store) — for every
/// record that starts in a new page, so the first record starting in any
/// page is decodable without history. Run::restarts (storage/run.h)
/// lists them all; seeks, the entry store's sparse index and segment
/// manifests take their positions from it. Scan-only runs skip the
/// per-page restarts: on deep directories a restart re-emits the whole
/// reverse-DN key, which is most of the compression win.
///
/// The values are the on-disk format byte; 0 was the retired
/// uncompressed layout and decodes as corruption.
enum class PageFormat : uint8_t {
  kPrefix = 1,
  kKeyPrefix = 2,
};

/// Writer-side restart interval (records between forced restarts).
/// Seeks never depend on it — the per-page forced restart (where
/// enabled) is what gives every page's first record a restart — so the
/// interval bounds how far a mid-page corruption can smear and how many
/// records a backward read decodes at once. Deep-directory keys make
/// full restart records expensive (a restart re-emits the whole
/// reverse-DN key), so the interval is deliberately loose.
inline constexpr uint64_t kRestartInterval = 64;

/// Always true: every run is prefix-compressed. Benchmarks record it as
/// the page format in their provenance lines.
inline bool PageCompressionEnabled() { return true; }

// ---------------------------------------------------------------------------
// Order-preserving integer key encoding
// ---------------------------------------------------------------------------

/// Order-preserving fixed-width encoding of a signed 64-bit integer: the
/// sign bit is flipped and the bytes stored big-endian, so memcmp order on
/// the 8-byte strings equals numeric order.
void AppendOrderedInt64(int64_t v, std::string* out);
int64_t DecodeOrderedInt64(std::string_view bytes);

/// Appends the wire form of `entry` to `out`: its HierKey as a string,
/// then its attribute bytes (see EntryView), copied.
void SerializeEntry(const Entry& entry, std::string* out);
/// Parses an Entry from its wire form: EntryView::Parse's one check, then
/// a copy of the key and of the attribute bytes. Bytes past the
/// attributes are ignored.
Result<Entry> DeserializeEntry(std::string_view record);

/// Reads just the HierKey prefix of a serialized entry — the sort key —
/// without materializing the rest.
Result<std::string_view> PeekEntryKey(std::string_view record);

}  // namespace ndq

#endif  // NDQ_STORAGE_SERDE_H_
