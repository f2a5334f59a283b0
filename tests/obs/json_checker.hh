/**
 * @file
 * Minimal recursive-descent JSON validity checker shared by the obs
 * tests. Accepts exactly the RFC 8259 grammar (objects, arrays,
 * strings with escapes, numbers, true/false/null); the tests mostly
 * need "does this parse", not a DOM — a trace file that passes here
 * loads in Perfetto / chrome://tracing. Object members whose value is
 * a number are also collected, so tests can read numbers back.
 */

#ifndef MINDFUL_TESTS_OBS_JSON_CHECKER_HH
#define MINDFUL_TESTS_OBS_JSON_CHECKER_HH

#include <cctype>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

namespace mindful::obs {

class JsonChecker
{
  public:
    explicit JsonChecker(std::string text) : _text(std::move(text)) {}

    bool
    valid()
    {
        _pos = 0;
        _numberMembers.clear();
        skipWs();
        if (!value())
            return false;
        skipWs();
        return _pos == _text.size();
    }

    /** (key, number text) of every numeric object member, in order. */
    const std::vector<std::pair<std::string, std::string>> &
    numberMembers() const
    {
        return _numberMembers;
    }

  private:
    bool
    value()
    {
        if (_pos >= _text.size())
            return false;
        switch (_text[_pos]) {
          case '{': return object();
          case '[': return array();
          case '"': return string();
          case 't': return literal("true");
          case 'f': return literal("false");
          case 'n': return literal("null");
          default: return number();
        }
    }

    bool
    object()
    {
        ++_pos; // '{'
        skipWs();
        if (peek() == '}') {
            ++_pos;
            return true;
        }
        while (true) {
            skipWs();
            const std::size_t key_begin = _pos + 1;
            if (!string())
                return false;
            std::string key = _text.substr(key_begin, _pos - 1 - key_begin);
            skipWs();
            if (peek() != ':')
                return false;
            ++_pos;
            skipWs();
            const std::size_t value_begin = _pos;
            if (!value())
                return false;
            const char first = _text[value_begin];
            if (first == '-' ||
                std::isdigit(static_cast<unsigned char>(first)))
                _numberMembers.emplace_back(
                    std::move(key),
                    _text.substr(value_begin, _pos - value_begin));
            skipWs();
            if (peek() == ',') {
                ++_pos;
                continue;
            }
            if (peek() == '}') {
                ++_pos;
                return true;
            }
            return false;
        }
    }

    bool
    array()
    {
        ++_pos; // '['
        skipWs();
        if (peek() == ']') {
            ++_pos;
            return true;
        }
        while (true) {
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (peek() == ',') {
                ++_pos;
                continue;
            }
            if (peek() == ']') {
                ++_pos;
                return true;
            }
            return false;
        }
    }

    bool
    string()
    {
        if (peek() != '"')
            return false;
        ++_pos;
        while (_pos < _text.size()) {
            char c = _text[_pos];
            if (c == '"') {
                ++_pos;
                return true;
            }
            if (static_cast<unsigned char>(c) < 0x20)
                return false; // control chars must be escaped
            if (c == '\\') {
                ++_pos;
                if (_pos >= _text.size())
                    return false;
                char e = _text[_pos];
                if (e == 'u') {
                    for (int i = 0; i < 4; ++i) {
                        ++_pos;
                        if (_pos >= _text.size() ||
                            !std::isxdigit(static_cast<unsigned char>(
                                _text[_pos])))
                            return false;
                    }
                } else if (!std::strchr("\"\\/bfnrt", e)) {
                    return false;
                }
            }
            ++_pos;
        }
        return false;
    }

    bool
    number()
    {
        std::size_t start = _pos;
        if (peek() == '-')
            ++_pos;
        if (!std::isdigit(static_cast<unsigned char>(peek())))
            return false;
        while (std::isdigit(static_cast<unsigned char>(peek())))
            ++_pos;
        if (peek() == '.') {
            ++_pos;
            if (!std::isdigit(static_cast<unsigned char>(peek())))
                return false;
            while (std::isdigit(static_cast<unsigned char>(peek())))
                ++_pos;
        }
        if (peek() == 'e' || peek() == 'E') {
            ++_pos;
            if (peek() == '+' || peek() == '-')
                ++_pos;
            if (!std::isdigit(static_cast<unsigned char>(peek())))
                return false;
            while (std::isdigit(static_cast<unsigned char>(peek())))
                ++_pos;
        }
        return _pos > start;
    }

    bool
    literal(const char *word)
    {
        for (const char *c = word; *c; ++c) {
            if (_pos >= _text.size() || _text[_pos] != *c)
                return false;
            ++_pos;
        }
        return true;
    }

    char peek() const { return _pos < _text.size() ? _text[_pos] : '\0'; }

    void
    skipWs()
    {
        while (_pos < _text.size() &&
               (std::isspace(static_cast<unsigned char>(_text[_pos]))))
            ++_pos;
    }

    std::string _text;
    std::size_t _pos = 0;
    std::vector<std::pair<std::string, std::string>> _numberMembers;
};

} // namespace mindful::obs

#endif // MINDFUL_TESTS_OBS_JSON_CHECKER_HH
