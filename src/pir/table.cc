#include "src/pir/table.h"

#include <cstring>
#include <stdexcept>

namespace gpudpf {

PirTable::PirTable(std::uint64_t num_entries, std::size_t entry_bytes,
                   TableLayout layout)
    : num_entries_(num_entries),
      entry_bytes_(entry_bytes),
      words_per_entry_((entry_bytes + 15) / 16) {
    if (num_entries == 0 || entry_bytes == 0) {
        throw std::invalid_argument("PirTable: empty dimensions");
    }
    storage_ = TableStorage::Create(layout, num_entries_, words_per_entry_);
    geometry_ = storage_->geometry();
}

void PirTable::SetEntry(std::uint64_t i, const std::uint8_t* bytes,
                        std::size_t len) {
    if (i >= num_entries_) throw std::out_of_range("PirTable::SetEntry");
    len = std::min(len, entry_bytes_);
    u128* row = MutableEntry(i);
    std::memset(row, 0, words_per_entry_ * sizeof(u128));
    std::memcpy(row, bytes, len);
}

std::vector<std::uint8_t> PirTable::EntryBytes(std::uint64_t i) const {
    if (i >= num_entries_) throw std::out_of_range("PirTable::EntryBytes");
    std::vector<std::uint8_t> out(entry_bytes_);
    std::memcpy(out.data(), Entry(i), entry_bytes_);
    return out;
}

void PirTable::FillRandom(Rng& rng) {
    // Row-wise fill: each row consumes words_per_entry * 16 bytes (a whole
    // number of the rng's 8-byte words), so the byte stream — and hence the
    // logical table content — matches the seed's single contiguous fill and
    // is identical across layouts. Tile padding stays zero.
    for (std::uint64_t i = 0; i < num_entries_; ++i) {
        rng.FillBytes(reinterpret_cast<std::uint8_t*>(MutableEntry(i)),
                      words_per_entry_ * sizeof(u128));
    }
}

}  // namespace gpudpf
