#include "util/binary_io.hpp"

#include "util/checksum.hpp"

namespace sb::util::io {

bool write_frame(std::ostream& os, std::uint64_t magic, std::uint32_t version,
                 std::string_view payload) {
  write_pod(os, magic);
  write_pod(os, version);
  write_pod(os, static_cast<std::uint64_t>(payload.size()));
  write_pod(os, crc32(payload.data(), payload.size()));
  os.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  return static_cast<bool>(os);
}

const char* read_frame(std::istream& is, std::uint64_t magic,
                       std::uint32_t version, std::string& payload,
                       std::uint64_t* magic_seen) {
  const std::streamoff start = is.tellg();
  std::uint64_t found = 0;
  if (!read_pod(is, found)) return "truncated frame header";
  if (magic_seen) *magic_seen = found;
  if (found != magic) return "unrecognized magic";
  std::uint32_t found_version = 0;
  std::uint64_t payload_size = 0;
  std::uint32_t crc = 0;
  if (!read_pod(is, found_version) || !read_pod(is, payload_size) ||
      !read_pod(is, crc))
    return "truncated frame header";
  if (found_version != version) return "unsupported format version";
  // The declared payload must match the bytes actually present — this both
  // catches truncation early and bounds the allocation below.
  is.seekg(0, std::ios::end);
  const auto stream_size = static_cast<std::uint64_t>(is.tellg());
  const auto frame_start = static_cast<std::uint64_t>(start);
  is.seekg(static_cast<std::streamoff>(frame_start + kFrameHeaderBytes),
           std::ios::beg);
  if (stream_size < frame_start + kFrameHeaderBytes ||
      payload_size != stream_size - frame_start - kFrameHeaderBytes)
    return "payload size mismatch (truncated or corrupt)";
  payload.assign(payload_size, '\0');
  is.read(payload.data(), static_cast<std::streamsize>(payload_size));
  if (!is) return "short read";
  if (crc32(payload.data(), payload.size()) != crc)
    return "checksum mismatch (bit-flipped or corrupt)";
  return nullptr;
}

}  // namespace sb::util::io
