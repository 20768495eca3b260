#include "src/pir/table_layout.h"

#include "src/common/env.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <new>
#include <stdexcept>
#include <vector>

#ifdef __linux__
#include <sys/mman.h>
#endif

namespace gpudpf {
namespace {

// Target tile footprint: half a typical 256 KiB L2 slice, leaving room for
// the shard's DPF shares buffer and response accumulator.
constexpr std::size_t kTileTargetBytes = 128 * 1024;

// Alignment of the tiled allocation: cache-line by default, 2 MiB once the
// table is large enough that transparent hugepages can map it.
constexpr std::size_t kCacheLineBytes = 64;
constexpr std::size_t kHugePageBytes = 2 * 1024 * 1024;

int FloorLog2(std::uint64_t v) {
    int log = 0;
    while (v >>= 1) ++log;
    return log;
}

class RowMajorStorage final : public TableStorage {
  public:
    RowMajorStorage(std::uint64_t num_entries, std::size_t words_per_entry)
        : TableStorage(num_entries, words_per_entry),
          data_(num_entries * words_per_entry, 0) {
        geometry_.base = data_.data();
        geometry_.words_per_entry = words_per_entry;
        geometry_.log_rows_per_tile = 63;  // every row in "tile 0"
        geometry_.tile_stride_words = 0;
        rows_per_tile_ = 0;
    }

    TableLayout layout() const override { return TableLayout::kRowMajor; }
    std::size_t size_bytes() const override {
        return data_.size() * sizeof(u128);
    }

  private:
    std::vector<u128> data_;
};

class TiledStorage final : public TableStorage {
  public:
    TiledStorage(std::uint64_t num_entries, std::size_t words_per_entry)
        : TableStorage(num_entries, words_per_entry) {
        const std::size_t row_bytes = words_per_entry * sizeof(u128);
        // Power-of-two tile height so row addressing is a shift, at least
        // one row per tile for entries wider than the tile target.
        const std::uint64_t fit =
            std::max<std::uint64_t>(1, kTileTargetBytes / row_bytes);
        const int log = FloorLog2(fit);
        rows_per_tile_ = std::uint64_t{1} << log;
        // Pad each tile up to a whole cache line so consecutive tiles never
        // share a line (tiles are the unit of worker ownership).
        const std::size_t line_words = kCacheLineBytes / sizeof(u128);
        const std::size_t tile_words = rows_per_tile_ * words_per_entry;
        tile_stride_words_ =
            (tile_words + line_words - 1) / line_words * line_words;
        const std::uint64_t num_tiles =
            (num_entries + rows_per_tile_ - 1) / rows_per_tile_;

        bytes_ = num_tiles * tile_stride_words_ * sizeof(u128);
        alignment_ = bytes_ >= kHugePageBytes ? kHugePageBytes
                                              : kCacheLineBytes;
        data_ = static_cast<u128*>(
            ::operator new(bytes_, std::align_val_t(alignment_)));
#ifdef __linux__
        if (alignment_ == kHugePageBytes) {
            // Best effort: fewer TLB misses while streaming tiles. Advised
            // before the zeroing memset below so pages can be formed as
            // huge at fault time rather than collapsed later.
            (void)madvise(data_, bytes_, MADV_HUGEPAGE);
        }
#endif
        std::memset(data_, 0, bytes_);
        geometry_.base = data_;
        geometry_.words_per_entry = words_per_entry;
        geometry_.log_rows_per_tile = log;
        geometry_.tile_stride_words = tile_stride_words_;
    }

    ~TiledStorage() override {
        ::operator delete(data_, std::align_val_t(alignment_));
    }

    TableLayout layout() const override { return TableLayout::kTiled; }
    std::size_t size_bytes() const override { return bytes_; }

  private:
    std::size_t tile_stride_words_ = 0;
    std::size_t bytes_ = 0;
    std::size_t alignment_ = kCacheLineBytes;
    u128* data_ = nullptr;
};

}  // namespace

const char* TableLayoutName(TableLayout layout) {
    switch (layout) {
        case TableLayout::kRowMajor:
            return "row_major";
        case TableLayout::kTiled:
            return "tiled";
    }
    return "unknown";
}

bool ParseTableLayout(const std::string& name, TableLayout* out) {
    if (name == "row_major") {
        *out = TableLayout::kRowMajor;
        return true;
    }
    if (name == "tiled") {
        *out = TableLayout::kTiled;
        return true;
    }
    return false;
}

TableLayout DefaultTableLayout() {
    static const TableLayout layout = [] {
        TableLayout parsed = TableLayout::kRowMajor;
        const char* env = GpudpfEnv("GPUDPF_TABLE_LAYOUT");
        if (env != nullptr) ParseTableLayout(env, &parsed);
        return parsed;
    }();
    return layout;
}

std::uint64_t ShardRowBoundary(std::uint64_t row_begin,
                               std::uint64_t num_rows,
                               std::uint64_t tile_rows, std::size_t shards,
                               std::size_t s) {
    if (s == 0) return 0;
    if (s >= shards) return num_rows;
    const std::uint64_t chunk = (num_rows + shards - 1) / shards;
    std::uint64_t b = std::min<std::uint64_t>(num_rows, s * chunk);
    if (tile_rows > 0 && tile_rows <= chunk) {
        const std::uint64_t snapped =
            (row_begin + b) / tile_rows * tile_rows;
        b = snapped > row_begin ? snapped - row_begin : 0;
    }
    return b;
}

std::unique_ptr<TableStorage> TableStorage::Create(
    TableLayout layout, std::uint64_t num_entries,
    std::size_t words_per_entry) {
    if (num_entries == 0 || words_per_entry == 0) {
        throw std::invalid_argument("TableStorage: empty dimensions");
    }
    switch (layout) {
        case TableLayout::kRowMajor:
            return std::make_unique<RowMajorStorage>(num_entries,
                                                     words_per_entry);
        case TableLayout::kTiled:
            return std::make_unique<TiledStorage>(num_entries,
                                                  words_per_entry);
    }
    throw std::invalid_argument("TableStorage: unknown layout");
}

}  // namespace gpudpf
