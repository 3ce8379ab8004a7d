#include "exec/binding_table.h"

#include <utility>

namespace parqo {
namespace {

// FNV-1a over one row, reading column vectors at a fixed row index. Same
// constants as the join kernels so hash quality is shared.
std::uint64_t HashRowAt(const std::vector<std::vector<TermId>>& cols,
                        std::size_t row) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const std::vector<TermId>& c : cols) {
    h ^= c[row];
    h *= 1099511628211ULL;
  }
  return h;
}

constexpr std::uint32_t kVacant = 0xffffffffu;

}  // namespace

void BindingTable::BuildColumnIndex() {
  VarId max_var = -1;
  for (VarId v : schema_) max_var = v > max_var ? v : max_var;
  col_of_.assign(static_cast<std::size_t>(max_var + 1), -1);
  for (int c = 0; c < num_cols(); ++c) {
    VarId v = schema_[c];
    PARQO_DCHECK(v >= 0);
    if (col_of_[v] < 0) col_of_[v] = c;  // duplicates keep the first
  }
}

void BindingTable::AppendFrom(const BindingTable& src) {
  PARQO_DCHECK(schema_ == src.schema_);
  sorted_by_ = kInvalidVarId;
  for (std::size_t c = 0; c < cols_.size(); ++c) {
    cols_[c].insert(cols_[c].end(), src.cols_[c].begin(),
                    src.cols_[c].end());
  }
}

BindingTable BindingTable::Concat(std::vector<BindingTable>&& parts) {
  if (parts.empty()) return BindingTable();
  BindingTable out(parts[0].schema_);
  std::size_t rows = 0;
  for (const BindingTable& p : parts) {
    PARQO_DCHECK(p.schema_ == out.schema_);
    rows += p.NumRows();
  }
  for (std::size_t c = 0; c < out.cols_.size(); ++c) {
    std::vector<TermId>& dst = out.cols_[c];
    dst.reserve(rows);
    for (BindingTable& p : parts) {
      dst.insert(dst.end(), p.cols_[c].begin(), p.cols_[c].end());
      std::vector<TermId>().swap(p.cols_[c]);
    }
  }
  parts.clear();
  return out;
}

void BindingTable::AppendGather(const BindingTable& src,
                                const std::uint32_t* rows, std::size_t n) {
  PARQO_DCHECK(schema_ == src.schema_);
  sorted_by_ = kInvalidVarId;
  for (std::size_t c = 0; c < cols_.size(); ++c) {
    std::vector<TermId>& dst = cols_[c];
    const std::vector<TermId>& from = src.cols_[c];
    std::size_t base = dst.size();
    dst.resize(base + n);
    for (std::size_t i = 0; i < n; ++i) {
      dst[base + i] = from[rows[i]];
    }
  }
}

void BindingTable::Deduplicate() {
  const std::size_t rows = NumRows();
  if (rows == 0) return;

  // Open-addressed table of row indexes, linear probing, power-of-two
  // capacity at <= 50% load. A slot holds the index of the first row seen
  // with that content; kVacant marks empty.
  std::size_t cap = 16;
  while (cap < rows * 2) cap <<= 1;
  const std::size_t mask = cap - 1;
  std::vector<std::uint32_t> slots(cap, kVacant);
  std::vector<std::uint32_t> keep;
  keep.reserve(rows);

  auto rows_equal = [&](std::uint32_t a, std::uint32_t b) {
    for (const std::vector<TermId>& c : cols_) {
      if (c[a] != c[b]) return false;
    }
    return true;
  };

  for (std::uint32_t r = 0; r < rows; ++r) {
    std::uint64_t h = HashRowAt(cols_, r);
    for (std::size_t i = h & mask;; i = (i + 1) & mask) {
      std::uint32_t s = slots[i];
      if (s == kVacant) {
        slots[i] = r;
        keep.push_back(r);
        break;
      }
      if (rows_equal(s, r)) break;  // duplicate of an earlier row
    }
  }
  if (keep.size() == rows) return;  // nothing to drop

  for (std::vector<TermId>& c : cols_) {
    std::vector<TermId> out(keep.size());
    for (std::size_t i = 0; i < keep.size(); ++i) {
      out[i] = c[keep[i]];
    }
    c = std::move(out);
  }
}

BindingTable BindingTable::Project(const std::vector<VarId>& vars) const {
  BindingTable out(vars);
  for (std::size_t i = 0; i < vars.size(); ++i) {
    int c = ColumnOf(vars[i]);
    PARQO_CHECK(c >= 0);
    out.cols_[i] = cols_[c];  // whole-column copy
  }
  // Projection keeps row order (dedup is keep-first), so known order
  // survives when the sorted column itself is kept.
  if (sorted_by_ != kInvalidVarId && out.ColumnOf(sorted_by_) >= 0) {
    out.sorted_by_ = sorted_by_;
  }
  out.Deduplicate();
  return out;
}

}  // namespace parqo
