#include "io/json.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <utility>

namespace qmcxx::io::json
{

void Reader::fail(const std::string& what) const
{
  throw std::runtime_error(context_ + ": " + what + " at byte " + std::to_string(pos_));
}

std::size_t Reader::skip_ws()
{
  while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_])) != 0)
    ++pos_;
  return pos_;
}

bool Reader::consume_if(char c)
{
  const bool hit = skip_ws() < s_.size() && s_[pos_] == c;
  pos_ += hit ? 1 : 0;
  return hit;
}

void Reader::expect(char c)
{
  if (!consume_if(c))
    fail(pos_ < s_.size() ? std::string("expected '") + c + "', found '" + s_[pos_] + "'"
                          : std::string("unexpected end of input"));
}

void Reader::finish(const std::string& what)
{
  if (skip_ws() < s_.size())
    fail("trailing characters after the " + what);
}

std::string Reader::string()
{
  expect('"');
  std::string out;
  while (true)
  {
    if (pos_ >= s_.size())
      fail("unterminated string");
    const char c = s_[pos_];
    if (static_cast<unsigned char>(c) < 0x20)
      fail("raw control character in string");
    ++pos_;
    if (c == '"')
      return out;
    if (c != '\\')
    {
      out += c;
      continue;
    }
    if (pos_ >= s_.size())
      fail("unterminated escape");
    const char e = s_[pos_++];
    static constexpr std::string_view plain = "\"\\/bfnrt", decoded = "\"\\/\b\f\n\r\t";
    const char* hex = s_.data() + pos_;
    unsigned cp = 0;
    if (const std::size_t i = plain.find(e); i != std::string_view::npos)
      out += decoded[i];
    else if (e == 'u' && pos_ + 4 <= s_.size() &&
             std::from_chars(hex, hex + 4, cp, 16).ptr == hex + 4 && cp < 0x80)
    {
      // The writer escapes only ASCII control characters; other text
      // travels as raw UTF-8.
      out += static_cast<char>(cp);
      pos_ += 4;
    }
    else
      fail(std::string("unsupported escape '\\") + e + "'");
  }
}

bool Reader::boolean()
{
  skip_ws();
  const bool b = s_.substr(pos_, 4) == "true";
  if (!b && s_.substr(pos_, 5) != "false")
    fail("expected true or false");
  pos_ += b ? 4 : 5;
  return b;
}

std::string Reader::number_token()
{
  // Take the whole number-like lexeme, so "+3", ".5" and "01" are
  // reported whole, then hold it to -?(0|[1-9]d*)(.d+)?([eE][+-]?d+)?
  const std::size_t start = skip_ws();
  while (pos_ < s_.size() && std::string_view("0123456789+-.eE").find(s_[pos_]) != s_.npos)
    ++pos_;
  const std::string tok(s_.substr(start, pos_ - start));
  if (tok.empty())
    fail("expected a number");
  std::size_t i = tok[0] == '-' ? 1 : 0;
  const auto digits = [&] {
    const std::size_t from = i;
    i = std::min(tok.find_first_not_of("0123456789", i), tok.size());
    return i - from;
  };
  const bool lead_zero = tok[i] == '0';
  const std::size_t n = digits();
  bool ok = n == 1 || (n > 1 && !lead_zero);
  if (ok && tok[i] == '.')
  {
    ++i;
    ok = digits() > 0;
  }
  if (ok && (tok[i] == 'e' || tok[i] == 'E'))
  {
    i += (tok[i + 1] == '+' || tok[i + 1] == '-') ? 2 : 1;
    ok = digits() > 0;
  }
  if (!ok || i != tok.size())
    fail("malformed number '" + tok + "'");
  return tok;
}

double Reader::number()
{
  const std::string tok = number_token();
  errno = 0;
  const double v = std::strtod(tok.c_str(), nullptr);
  if (errno != 0)
    fail("number out of range '" + tok + "'");
  return v;
}

int Reader::integer()
{
  const std::string tok = number_token();
  if (tok.find_first_of(".eE") != std::string::npos)
    fail("expected an integer, got '" + tok + "'");
  int v = 0;
  if (std::from_chars(tok.data(), tok.data() + tok.size(), v).ec != std::errc())
    fail("integer out of range '" + tok + "'");
  return v;
}

std::uint64_t Reader::u64()
{
  const std::string tok = number_token();
  std::uint64_t v = 0;
  if (tok.find_first_of(".eE") != std::string::npos || std::from_chars(tok.data(), tok.data() + tok.size(), v).ec != std::errc())
    fail("expected an unsigned 64-bit integer, got '" + tok + "'");
  return v;
}

std::string json_number(double v)
{
  if (!std::isfinite(v))
    return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void Writer::separate()
{
  if (std::exchange(after_key_, false) || stack_.empty())
    return;
  Frame& f = stack_.back();
  if (!f.empty)
    out_ += ',';
  if (f.layout == Layout::Lines || break_)
    out_.append("\n").append(2 * stack_.size(), ' ');
  else if (!f.empty || f.layout == Layout::Padded)
    out_ += ' ';
  f.empty = false;
  break_ = false;
}

Writer& Writer::raw(std::string_view text)
{
  separate();
  out_ += text;
  return *this;
}

Writer& Writer::open(char c, Layout layout)
{
  separate();
  out_ += c;
  stack_.push_back({layout});
  return *this;
}

Writer& Writer::close(char c)
{
  const Frame f = stack_.back();
  stack_.pop_back();
  if (!f.empty && f.layout == Layout::Lines)
    out_.append("\n").append(2 * stack_.size(), ' ');
  else if (!f.empty && f.layout == Layout::Padded)
    out_ += ' ';
  out_ += c;
  break_ = false;
  return *this;
}

std::string quoted(std::string_view s)
{
  static constexpr std::string_view special = "\"\\\b\f\n\r\t", escaped = "\"\\bfnrt";
  std::string out = "\"";
  for (const char c : s)
  {
    if (const std::size_t i = special.find(c); i != std::string_view::npos)
      out.append(1, '\\').append(1, escaped[i]);
    else if (static_cast<unsigned char>(c) < 0x20)
    {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    }
    else
      out += c;
  }
  return out + '"';
}

} // namespace qmcxx::io::json
