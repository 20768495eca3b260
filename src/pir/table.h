// Embedding-table container shared by the PIR servers.
//
// Entries are fixed-width byte vectors stored as 128-bit words; the
// server-side PIR response is an integer matrix-vector product between
// the DPF leaf shares and this table (paper Section 3.1). Physical row
// placement is delegated to a TableStorage layout (src/pir/table_layout.h):
// row-major (the seed layout) or tiled, cache-aware blocks. Rows are
// contiguous in every layout, so Entry()/MutableEntry() pointers are valid
// regardless of the layout choice.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/rng.h"
#include "src/common/u128.h"
#include "src/pir/table_layout.h"

namespace gpudpf {

class PirTable {
  public:
    // Creates a zero-filled table of `num_entries` rows of `entry_bytes`
    // bytes each, in the given physical layout. entry_bytes is rounded up
    // to a multiple of 16 internally. The layout defaults to the process
    // default (GPUDPF_TABLE_LAYOUT env var, else row-major).
    PirTable(std::uint64_t num_entries, std::size_t entry_bytes,
             TableLayout layout = DefaultTableLayout());

    PirTable(PirTable&&) = default;
    PirTable& operator=(PirTable&&) = default;

    std::uint64_t num_entries() const { return num_entries_; }
    std::size_t entry_bytes() const { return entry_bytes_; }
    std::size_t words_per_entry() const { return words_per_entry_; }
    std::size_t size_bytes() const { return storage_->size_bytes(); }

    TableLayout layout() const { return storage_->layout(); }
    const TableStorage& storage() const { return *storage_; }
    // Tile height of the physical layout (0 = untiled row-major); the
    // answer engine aligns its shard boundaries and kernel segments to it.
    std::uint64_t rows_per_tile() const { return storage_->rows_per_tile(); }

    // Row access as 128-bit words (contiguous within a row in any layout).
    const u128* Entry(std::uint64_t i) const { return geometry_.Row(i); }
    u128* MutableEntry(std::uint64_t i) { return geometry_.MutableRow(i); }

    // Writes raw bytes into row i (at most entry_bytes; rest zero-padded).
    void SetEntry(std::uint64_t i, const std::uint8_t* bytes, std::size_t len);

    // Reads row i back out as bytes.
    std::vector<std::uint8_t> EntryBytes(std::uint64_t i) const;

    // Fills every row with deterministic pseudorandom content. Rows are
    // filled in order, one row per FillBytes call, so the logical table
    // content is identical across layouts for a given rng state.
    void FillRandom(Rng& rng);

  private:
    std::uint64_t num_entries_;
    std::size_t entry_bytes_;
    std::size_t words_per_entry_;
    std::unique_ptr<TableStorage> storage_;
    // Cached from storage_ so Entry() stays inline and virtual-free in
    // kernel loops.
    TableGeometry geometry_;
};

}  // namespace gpudpf
