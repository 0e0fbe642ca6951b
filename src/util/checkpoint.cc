#include "util/checkpoint.h"

#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>

namespace nplus::util {

namespace {

std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

constexpr std::uint32_t kMagic = 0x4B43504Eu;  // "NPCK" little-endian
constexpr std::uint32_t kContainerVersion = 1;

[[noreturn]] void corrupt(const std::string& path, const std::string& why) {
  throw CheckpointError("checkpoint " + path + ": " + why);
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t n, std::uint32_t crc) {
  static const std::array<std::uint32_t, 256> table = make_crc_table();
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint32_t c = crc ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) {
    c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

void ByteWriter::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void ByteWriter::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void ByteWriter::f64(double v) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  u64(bits);
}

void ByteWriter::bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  buf_.insert(buf_.end(), p, p + n);
}

std::uint8_t ByteReader::u8() {
  if (remaining() < 1) throw CheckpointError("truncated record (u8)");
  return data_[pos_++];
}

std::uint32_t ByteReader::u32() {
  if (remaining() < 4) throw CheckpointError("truncated record (u32)");
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(data_[pos_++]) << (8 * i);
  return v;
}

std::uint64_t ByteReader::u64() {
  if (remaining() < 8) throw CheckpointError("truncated record (u64)");
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(data_[pos_++]) << (8 * i);
  return v;
}

double ByteReader::f64() {
  const std::uint64_t bits = u64();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

void ByteReader::bytes(void* out, std::size_t n) {
  if (remaining() < n) throw CheckpointError("truncated record (bytes)");
  // An empty record may come with a null `out` (an empty vector's data()),
  // and memcpy with a null pointer is undefined even for zero bytes.
  if (n == 0) return;
  std::memcpy(out, data_ + pos_, n);
  pos_ += n;
}

void write_checkpoint_file(const std::string& path, const CheckpointData& d) {
  ByteWriter w;
  w.u32(kMagic);
  w.u32(kContainerVersion);
  w.u32(d.version);
  w.u64(d.header.size());
  w.bytes(d.header.data(), d.header.size());
  w.u64(d.items.size());
  for (const auto& [index, blob] : d.items) {
    w.u64(index);
    w.u64(blob.size());
    w.bytes(blob.data(), blob.size());
  }
  const std::vector<std::uint8_t>& body = w.data();
  const std::uint32_t crc = crc32(body.data(), body.size());

  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    throw CheckpointError("cannot open " + tmp + " for writing: " +
                          std::strerror(errno));
  }
  bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  std::uint8_t tail[4];
  for (int i = 0; i < 4; ++i) tail[i] = static_cast<std::uint8_t>(crc >> (8 * i));
  ok = ok && std::fwrite(tail, 1, 4, f) == 4;
  ok = std::fclose(f) == 0 && ok;
  if (!ok) {
    std::remove(tmp.c_str());
    throw CheckpointError("short write to " + tmp);
  }
  // The atomic-replace step: readers only ever observe the previous
  // complete file or the new complete file.
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw CheckpointError("cannot rename " + tmp + " over " + path + ": " +
                          std::strerror(errno));
  }
}

std::optional<CheckpointData> read_checkpoint_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return std::nullopt;
  std::vector<std::uint8_t> raw;
  std::uint8_t chunk[1 << 16];
  std::size_t got;
  while ((got = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
    raw.insert(raw.end(), chunk, chunk + got);
  }
  const bool read_err = std::ferror(f) != 0;
  std::fclose(f);
  if (read_err) corrupt(path, "read error");
  if (raw.size() < 16) corrupt(path, "too short to be a checkpoint");

  std::uint32_t stored_crc = 0;
  for (int i = 0; i < 4; ++i) {
    stored_crc |= static_cast<std::uint32_t>(raw[raw.size() - 4 + i]) << (8 * i);
  }
  if (crc32(raw.data(), raw.size() - 4) != stored_crc) {
    corrupt(path, "CRC mismatch (file is corrupt or torn)");
  }

  try {
    ByteReader r(raw.data(), raw.size() - 4);
    if (r.u32() != kMagic) {
      throw CheckpointError("bad magic (not a checkpoint file)");
    }
    const std::uint32_t container = r.u32();
    if (container != kContainerVersion) {
      throw CheckpointError("unsupported container version " +
                            std::to_string(container));
    }
    CheckpointData d;
    d.version = r.u32();
    const std::uint64_t header_size = r.u64();
    // Every declared size must fit in the bytes that actually follow it;
    // otherwise a crafted (or bit-rotted yet CRC-valid) file turns resize()
    // into a multi-GiB allocation instead of a CheckpointError.
    if (header_size > r.remaining()) {
      throw CheckpointError("declared header size " +
                            std::to_string(header_size) +
                            " exceeds remaining payload");
    }
    d.header.resize(static_cast<std::size_t>(header_size));
    r.bytes(d.header.data(), d.header.size());
    const std::uint64_t n_items = r.u64();
    if (n_items > r.remaining() / 16) {  // each item is >= 16 bytes on disk
      throw CheckpointError("declared item count " + std::to_string(n_items) +
                            " exceeds remaining payload");
    }
    d.items.reserve(static_cast<std::size_t>(n_items));
    for (std::uint64_t i = 0; i < n_items; ++i) {
      const std::uint64_t index = r.u64();
      const std::uint64_t blob_size = r.u64();
      if (blob_size > r.remaining()) {
        throw CheckpointError("declared blob size " +
                              std::to_string(blob_size) +
                              " exceeds remaining payload");
      }
      std::vector<std::uint8_t> blob(static_cast<std::size_t>(blob_size));
      r.bytes(blob.data(), blob.size());
      d.items.emplace_back(index, std::move(blob));
    }
    if (!r.done()) throw CheckpointError("trailing bytes after last record");
    return d;
  } catch (const CheckpointError& e) {
    // Re-anchor ByteReader's context-free truncation errors on the file.
    corrupt(path, e.what());
  }
}

}  // namespace nplus::util
