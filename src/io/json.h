// The one JSON layer: a strict reader for what qmcxx ingests (job
// requests, qmcxx-spec-v1 files) and one writer for all it emits (spec
// files, qmcxx-bench-v1 records, the JSONL stream). The reader has no
// value tree: the schema code drives it and names unknown keys; it
// rejects repeated keys, non-RFC 8259 numbers ("+3", ".5", "01") and raw
// control characters in strings. The writer owns escaping, number text
// (%.17g doubles, exact integers, non-finite as null) and separators;
// line breaks are the caller's (Layout, newline()), so committed files
// keep their exact bytes.
#ifndef QMCXX_IO_JSON_H
#define QMCXX_IO_JSON_H

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <fstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace qmcxx::io::json
{

class Reader
{
public:
  Reader(std::string_view text, std::string context) : s_(text), context_(std::move(context)) {}

  [[noreturn]] void fail(const std::string& what) const;
  std::string string();
  bool boolean();
  double number();
  int integer();       ///< no fraction or exponent, in int range
  std::uint64_t u64(); ///< exact, never through double (seeds)
  /// Require that only whitespace remains; `what` names the document.
  void finish(const std::string& what);

  /// If key == name, read the value into `out` by its type and return
  /// true, so a schema reads as a chain of field() calls.
  template<typename T>
  bool field(std::string_view key, std::string_view name, T& out)
  {
    if (key == name)
      read(out);
    return key == name;
  }

  /// `{ "k": v, ... }`: fn(key) consumes each value.
  template<typename Fn>
  void members(Fn&& fn)
  {
    std::vector<std::string> seen;
    const auto member = [&] {
      const std::size_t at = skip_ws();
      seen.push_back(string());
      if (std::count(seen.begin(), seen.end(), seen.back()) > 1)
      {
        pos_ = at;
        fail("duplicate key '" + seen.back() + "'");
      }
      expect(':');
      fn(static_cast<const std::string&>(seen.back()));
    };
    elements(member, '{', '}');
  }

  /// `[ v, ... ]`: fn() consumes each element (members() reuses this
  /// loop with braces).
  template<typename Fn>
  void elements(Fn&& fn, char open = '[', char close = ']')
  {
    expect(open);
    if (consume_if(close))
      return;
    do
      fn();
    while (consume_if(','));
    expect(close);
  }

private:
  void read(std::string& v) { v = string(); }
  void read(bool& v) { v = boolean(); }
  void read(double& v) { v = number(); }
  void read(int& v) { v = integer(); }
  void read(std::uint64_t& v) { v = u64(); }
  std::size_t skip_ws();
  void expect(char c);
  bool consume_if(char c);
  /// One RFC 8259 number, as written.
  std::string number_token();

  std::string_view s_;
  std::size_t pos_ = 0;
  std::string context_;
};

/// The writer's number text: %.17g, non-finite values as null.
std::string json_number(double v);
/// `s` as a JSON string: quoted, with '"', '\\' and every control
/// character escaped.
std::string quoted(std::string_view s);

class Writer
{
public:
  /// Inline {"a": 1}; Padded { "a": 1 }; Lines: one element per line,
  /// indented two spaces per level, the closer on its own line.
  enum class Layout
  {
    Inline,
    Padded,
    Lines
  };

  Writer& begin_object(Layout layout = Layout::Inline) { return open('{', layout); }
  Writer& begin_array(Layout layout = Layout::Inline) { return open('[', layout); }
  Writer& end_object() { return close('}'); }
  Writer& end_array() { return close(']'); }
  /// Start the next element of the open container on a new line.
  Writer& newline()
  {
    break_ = true;
    return *this;
  }
  Writer& key(std::string_view k)
  {
    raw(quoted(k) + ": ");
    after_key_ = true;
    return *this;
  }
  Writer& value(std::string_view s) { return raw(quoted(s)); }
  Writer& value(const char* s) { return value(std::string_view(s)); }
  Writer& value(bool b) { return raw(b ? "true" : "false"); }
  Writer& value(double v) { return raw(json_number(v)); }
  Writer& value(std::integral auto v) { return raw(std::to_string(v)); }
  Writer& member(std::string_view k, const auto& v) { return key(k).value(v); }

  [[nodiscard]] const std::string& str() const { return out_; }

private:
  struct Frame
  {
    Layout layout;
    bool empty = true;
  };
  Writer& raw(std::string_view text);
  Writer& open(char c, Layout layout);
  Writer& close(char c);
  void separate();

  std::string out_;
  std::vector<Frame> stack_;
  bool after_key_ = false;
  bool break_ = false;
};

/// Append-mode JSONL sink, flushed per record so a consumer tailing the
/// stream (or a resume comparing observables) only sees whole lines.
class JsonlWriter
{
public:
  explicit JsonlWriter(const std::string& path) : out_(path, std::ios::app)
  {
    if (!out_)
      throw std::runtime_error("cannot open stream log '" + path + "' for append");
  }
  void append(const std::string& line) { out_ << line << '\n' << std::flush; }

private:
  std::ofstream out_;
};

} // namespace qmcxx::io::json

#endif
