// POD-stream helpers and the CRC-32 integrity frame shared by the binary
// artifact formats (model files, session checkpoints, WAV headers): every
// format shares one idiom — little-endian in-memory byte images, explicit
// sizes ahead of variable payloads, read functions that report failure
// instead of throwing.
//
// Framing: write_frame/read_frame own the frame layout (magic, format
// version, payload size, CRC-32 of the payload, then the payload); each
// format owner picks its magic and version, parses the verified payload,
// and logs/counts rejections in its own terms.
#pragma once

#include <cstddef>
#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace sb::util::io {

template <typename T>
void write_pod(std::ostream& os, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

template <typename T>
bool read_pod(std::istream& is, T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  is.read(reinterpret_cast<char*>(&v), sizeof(v));
  return static_cast<bool>(is);
}

// Length-prefixed vector of trivially copyable elements.
template <typename T>
void write_pod_vec(std::ostream& os, const std::vector<T>& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  write_pod(os, static_cast<std::uint64_t>(v.size()));
  if (!v.empty())
    os.write(reinterpret_cast<const char*>(v.data()),
             static_cast<std::streamsize>(v.size() * sizeof(T)));
}

// Reads a write_pod_vec image from an IN-MEMORY stream (a verified frame
// payload).  The CRC frame normally rejects corruption first, but parsers
// stay safe even on a colliding checksum: a length prefix claiming more
// elements than `max_count`, or more bytes than the stream has left, is
// rejected before anything is allocated.  The bytes-left bound is the
// stream buffer's in_avail(), which is exact for string streams only.
template <typename T>
bool read_pod_vec(std::istream& is, std::vector<T>& v,
                  std::uint64_t max_count = (1ULL << 32)) {
  static_assert(std::is_trivially_copyable_v<T>);
  std::uint64_t n = 0;
  if (!read_pod(is, n) || n > max_count) return false;
  if (n > 0) {
    const std::streamsize left = is.rdbuf()->in_avail();
    if (left < 0 || n * sizeof(T) > static_cast<std::uint64_t>(left)) return false;
  }
  v.resize(static_cast<std::size_t>(n));
  if (n > 0)
    is.read(reinterpret_cast<char*>(v.data()),
            static_cast<std::streamsize>(n * sizeof(T)));
  return static_cast<bool>(is);
}

// magic + version + payload size + crc32.
inline constexpr std::uint64_t kFrameHeaderBytes = 8 + 4 + 8 + 4;

// Writes `payload` inside an integrity frame.  Returns the stream state.
bool write_frame(std::ostream& os, std::uint64_t magic, std::uint32_t version,
                 std::string_view payload);

// Reads the frame that starts at the stream's current position and must run
// to its end (so a frame can sit after other bytes, never before them).
// The frame is validated — magic, version, declared size against the bytes
// present, CRC — before the caller parses any payload field.  Returns
// nullptr with `payload` filled on success, otherwise the rejection reason
// (a static string).  `magic_seen` receives the magic that was read, so a
// caller can name a known foreign or legacy format.
const char* read_frame(std::istream& is, std::uint64_t magic,
                       std::uint32_t version, std::string& payload,
                       std::uint64_t* magic_seen = nullptr);

}  // namespace sb::util::io
