#include "synergy/common/envelope.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "synergy/common/checksum.hpp"

namespace synergy::common::envelope {

namespace {

std::string hex32(std::uint32_t v) {
  char buf[9];
  std::snprintf(buf, sizeof buf, "%08x", v);
  return buf;
}

}  // namespace

std::string seal(std::string_view kind, unsigned version, std::string_view payload) {
  std::string out = std::string{magic} + ' ' + std::string{kind} + ' ' +
                    std::to_string(version) + ' ' + std::to_string(payload.size()) + ' ' +
                    hex32(crc32(payload)) + '\n';
  out.reserve(out.size() + payload.size());
  out += payload;
  return out;
}

bool looks_sealed(std::string_view text) {
  return text.substr(0, magic.size()) == magic;
}

opened open(std::string_view text, std::string_view expected_kind, unsigned max_version) {
  opened out;
  const auto fail = [&](fault f, std::string detail) {
    out.error = f;
    out.detail = std::move(detail);
    out.payload.clear();
    return out;
  };

  const auto newline = text.find('\n');
  if (newline == std::string_view::npos)
    return fail(fault::not_an_envelope, "no header line");
  const std::string header{text.substr(0, newline)};
  std::istringstream hs{header};
  std::string word_a, word_b, kind;
  unsigned version = 0;
  std::size_t payload_size = 0;
  std::string crc_hex;
  hs >> word_a >> word_b >> kind >> version >> payload_size >> crc_hex;
  if (hs.fail() || word_a + " " + word_b != magic)
    return fail(fault::not_an_envelope, "malformed header: '" + header + "'");
  out.kind = kind;
  out.version = version;
  if (kind != expected_kind)
    return fail(fault::kind_mismatch,
                "sealed as '" + kind + "', expected '" + std::string(expected_kind) + "'");
  if (version > max_version)
    return fail(fault::version_skew, "payload format v" + std::to_string(version) +
                                         ", this build reads up to v" +
                                         std::to_string(max_version));

  const std::string_view payload = text.substr(newline + 1);
  if (payload.size() < payload_size)
    return fail(fault::truncated, "payload truncated: header promises " +
                                      std::to_string(payload_size) + " bytes, file has " +
                                      std::to_string(payload.size()));
  // Trailing bytes beyond the declared size are corruption too (a splice of
  // two artefacts); the CRC below is computed over the declared window, so
  // reject the surplus explicitly.
  if (payload.size() > payload_size)
    return fail(fault::truncated, "payload size mismatch: header promises " +
                                      std::to_string(payload_size) + " bytes, file has " +
                                      std::to_string(payload.size()));
  const std::uint32_t expected_crc =
      static_cast<std::uint32_t>(std::strtoul(crc_hex.c_str(), nullptr, 16));
  const std::uint32_t actual_crc = crc32(payload);
  if (actual_crc != expected_crc)
    return fail(fault::checksum_mismatch,
                "crc32 " + hex32(actual_crc) + " != recorded " + hex32(expected_crc));
  out.payload.assign(payload);
  return out;
}

}  // namespace synergy::common::envelope

namespace synergy::common {

status atomic_write_file(const std::filesystem::path& path, std::string_view content) {
  std::error_code ec;
  const auto parent = path.parent_path();
  if (!parent.empty()) {
    std::filesystem::create_directories(parent, ec);
    if (ec)
      return error{errc::internal,
                   "cannot create directory " + parent.string() + ": " + ec.message()};
  }
  const auto tmp = path.string() + ".tmp";
  {
    std::ofstream out{tmp, std::ios::binary | std::ios::trunc};
    if (!out) return error{errc::internal, "cannot open " + tmp + " for writing"};
    out.write(content.data(), static_cast<std::streamsize>(content.size()));
    out.flush();
    if (!out) {
      std::filesystem::remove(tmp, ec);
      return error{errc::internal, "short write to " + tmp};
    }
  }
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    return error{errc::internal,
                 "cannot rename " + tmp + " over " + path.string() + ": " + ec.message()};
  }
  return status::success();
}

}  // namespace synergy::common
