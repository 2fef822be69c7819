#include "workload/report.hpp"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "support/error.hpp"
#include "support/strings.hpp"

namespace msc::workload {

std::string fmt_seconds(double s) {
  if (s < 1e-6) return strprintf("%.3g ns", s * 1e9);
  if (s < 1e-3) return strprintf("%.3g us", s * 1e6);
  if (s < 1.0) return strprintf("%.3g ms", s * 1e3);
  return strprintf("%.3g s", s);
}

std::string fmt_bytes(double bytes) {
  if (bytes < 1024.0) return strprintf("%.0f B", bytes);
  if (bytes < 1024.0 * 1024) return strprintf("%.1f KiB", bytes / 1024);
  if (bytes < 1024.0 * 1024 * 1024) return strprintf("%.1f MiB", bytes / 1024 / 1024);
  return strprintf("%.2f GiB", bytes / 1024 / 1024 / 1024);
}

std::string fmt_ratio(double r) { return strprintf("%.2fx", r); }

std::string fmt_gflops(double g) { return strprintf("%.1f", g); }

double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

void print_banner(const std::string& experiment, const std::string& paper_claim) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", experiment.c_str());
  std::printf("paper: %s\n", paper_claim.c_str());
  std::printf("================================================================\n");
}

Json Json::number(double v) {
  Json j(Kind::Number);
  j.num_ = v;
  return j;
}

Json Json::integer(long long v) {
  Json j(Kind::Integer);
  j.int_ = v;
  return j;
}

Json Json::boolean(bool v) {
  Json j(Kind::Bool);
  j.bool_ = v;
  return j;
}

Json Json::string(std::string v) {
  Json j(Kind::String);
  j.str_ = std::move(v);
  return j;
}

Json& Json::operator[](const std::string& key) {
  MSC_CHECK(kind_ == Kind::Object || kind_ == Kind::Null) << "Json: [] on non-object";
  kind_ = Kind::Object;
  for (auto& [k, v] : members_)
    if (k == key) return v;
  members_.emplace_back(key, Json(Kind::Null));
  return members_.back().second;
}

Json& Json::push_back(Json v) {
  MSC_CHECK(kind_ == Kind::Array || kind_ == Kind::Null) << "Json: push_back on non-array";
  kind_ = Kind::Array;
  elements_.push_back(std::move(v));
  return elements_.back();
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += strprintf("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

std::string Json::dump(int indent) const {
  const std::string pad(static_cast<std::size_t>(indent) * 2, ' ');
  const std::string pad1(static_cast<std::size_t>(indent + 1) * 2, ' ');
  switch (kind_) {
    case Kind::Null: return "null";
    case Kind::Bool: return bool_ ? "true" : "false";
    case Kind::Integer: return strprintf("%lld", int_);
    case Kind::Number: {
      if (!std::isfinite(num_)) return "null";  // JSON has no inf/nan
      return strprintf("%.17g", num_);
    }
    case Kind::String: return "\"" + json_escape(str_) + "\"";
    case Kind::Array: {
      if (elements_.empty()) return "[]";
      std::string out = "[\n";
      for (std::size_t n = 0; n < elements_.size(); ++n)
        out += pad1 + elements_[n].dump(indent + 1) + (n + 1 < elements_.size() ? ",\n" : "\n");
      return out + pad + "]";
    }
    case Kind::Object: {
      if (members_.empty()) return "{}";
      std::string out = "{\n";
      for (std::size_t n = 0; n < members_.size(); ++n)
        out += pad1 + "\"" + json_escape(members_[n].first) + "\": " +
               members_[n].second.dump(indent + 1) + (n + 1 < members_.size() ? ",\n" : "\n");
      return out + pad + "}";
    }
  }
  return "null";
}

std::string Json::dump_compact() const {
  switch (kind_) {
    case Kind::Array: {
      std::string out = "[";
      for (std::size_t n = 0; n < elements_.size(); ++n)
        out += (n ? "," : "") + elements_[n].dump_compact();
      return out + "]";
    }
    case Kind::Object: {
      std::string out = "{";
      for (std::size_t n = 0; n < members_.size(); ++n)
        out += (n ? ",\"" : "\"") + json_escape(members_[n].first) + "\":" +
               members_[n].second.dump_compact();
      return out + "}";
    }
    default:
      return dump(1);  // scalars never contain newlines at depth > 0
  }
}

namespace {

/// Recursive-descent JSON reader over a string; positions reported in
/// msc::Error messages are byte offsets.  Nesting is capped at kMaxDepth
/// containers: the reader recurses once per level, and the files it reads
/// (fault plans, bench reports, history ledgers) come from outside the
/// program, so unbounded nesting would let input exhaust the stack.
class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  Json parse_document() {
    Json v = parse_value();
    skip_ws();
    MSC_CHECK(pos_ == text_.size()) << "json: trailing content at offset " << pos_;
    return v;
  }

 private:
  char peek() {
    MSC_CHECK(pos_ < text_.size()) << "json: unexpected end of input";
    return text_[pos_];
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  void expect(char c) {
    MSC_CHECK(peek() == c) << "json: expected '" << c << "' at offset " << pos_;
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    const std::size_t n = std::strlen(lit);
    if (text_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  static constexpr int kMaxDepth = 512;

  Json parse_value() {
    skip_ws();
    switch (peek()) {
      case '{': return nested([this] { return parse_object(); });
      case '[': return nested([this] { return parse_array(); });
      case '"': return Json::string(parse_string());
      case 't':
        MSC_CHECK(consume_literal("true")) << "json: bad literal at offset " << pos_;
        return Json::boolean(true);
      case 'f':
        MSC_CHECK(consume_literal("false")) << "json: bad literal at offset " << pos_;
        return Json::boolean(false);
      case 'n':
        MSC_CHECK(consume_literal("null")) << "json: bad literal at offset " << pos_;
        return Json::null();
      default: return parse_number();
    }
  }

  /// Parses one container a level deeper.  A throw abandons the whole
  /// parse, so the level needs no unwinding on that path.
  template <typename Fn>
  Json nested(Fn&& parse_container) {
    MSC_CHECK(++depth_ <= kMaxDepth)
        << "json: nesting deeper than " << kMaxDepth << " levels at offset " << pos_;
    Json v = parse_container();
    --depth_;
    return v;
  }

  Json parse_object() {
    expect('{');
    Json obj = Json::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return obj;
    }
    while (true) {
      skip_ws();
      const std::string key = parse_string();
      skip_ws();
      expect(':');
      obj[key] = parse_value();
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return obj;
    }
  }

  Json parse_array() {
    expect('[');
    Json arr = Json::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return arr;
    }
    while (true) {
      arr.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return arr;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      MSC_CHECK(pos_ < text_.size()) << "json: unterminated string";
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      MSC_CHECK(pos_ < text_.size()) << "json: unterminated escape";
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          MSC_CHECK(pos_ + 4 <= text_.size()) << "json: truncated \\u escape";
          unsigned code = 0;
          for (int n = 0; n < 4; ++n) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else MSC_CHECK(false) << "json: bad \\u digit at offset " << pos_ - 1;
          }
          // Encode as UTF-8 (our own escaper only emits \u00xx control codes,
          // but accept the full BMP for generality; surrogates pass through
          // as their raw code units).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: MSC_CHECK(false) << "json: bad escape '\\" << esc << "'";
      }
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    bool is_integer = true;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    if (pos_ < text_.size() && (text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E')) {
      is_integer = false;
      while (pos_ < text_.size() &&
             (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '.' ||
              text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' || text_[pos_] == '-'))
        ++pos_;
    }
    MSC_CHECK(pos_ > start && text_[start] != '\0') << "json: bad number at offset " << start;
    const std::string tok = text_.substr(start, pos_ - start);
    errno = 0;
    char* end = nullptr;
    if (is_integer) {
      const long long v = std::strtoll(tok.c_str(), &end, 10);
      if (errno == 0 && end == tok.c_str() + tok.size()) return Json::integer(v);
      // Fall through to double for out-of-range integers.
    }
    const double d = std::strtod(tok.c_str(), &end);
    MSC_CHECK(end == tok.c_str() + tok.size()) << "json: bad number '" << tok << "'";
    return Json::number(d);
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;  ///< containers currently open
};

}  // namespace

Json Json::parse(const std::string& text) { return JsonParser(text).parse_document(); }

const Json* Json::find(const std::string& key) const {
  if (kind_ != Kind::Object) return nullptr;
  for (const auto& [k, v] : members_)
    if (k == key) return &v;
  return nullptr;
}

double Json::as_number() const {
  MSC_CHECK(is_number()) << "Json: as_number on non-number";
  return kind_ == Kind::Integer ? static_cast<double>(int_) : num_;
}

long long Json::as_integer() const {
  if (kind_ == Kind::Integer) return int_;
  MSC_CHECK(kind_ == Kind::Number && num_ == static_cast<double>(static_cast<long long>(num_)))
      << "Json: as_integer on non-integral value";
  return static_cast<long long>(num_);
}

bool Json::as_bool() const {
  MSC_CHECK(kind_ == Kind::Bool) << "Json: as_bool on non-bool";
  return bool_;
}

const std::string& Json::as_string() const {
  MSC_CHECK(kind_ == Kind::String) << "Json: as_string on non-string";
  return str_;
}

void write_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  MSC_CHECK(f != nullptr) << "cannot open '" << path << "' for writing";
  const std::size_t n = std::fwrite(text.data(), 1, text.size(), f);
  const bool closed = std::fclose(f) == 0;
  MSC_CHECK(n == text.size() && closed) << "short write to '" << path << "'";
}

}  // namespace msc::workload
