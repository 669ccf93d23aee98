"""Document model for the calculator: input files and reports.

An input document is a single JSON object describing abelian variety
models, an optional Galois action group, a multiplicative value group,
and a list of motives over these.  A rational is an integer or a string
"p" or "p/q" of ASCII digits, p optionally signed, and each list of them
is read once into the integer form (ints, den) the motive holds
(``_parse_row``; psi goes to the motive as its integer rows,
``_psi_form``): ``Fraction``s are built only on first read of
``coords``, ``psi`` or ``rows``.  Every declared name must resolve;
validation failures carry the JSON path of the offending field.  Every
list-valued field is read through ``_items``, which checks that it is a
list (of the length the schema fixes, if any) and pairs each item with
its path ``field[i]``, and every constructor on parsed data runs through
``_build``, which reports a ValueError it raises at the field's path.

The same schema is used for machine-readable output, so documents can be
regenerated: parsing and serializing is idempotent after one
normalization pass, and the emitted Cartier dual of a document is again
a valid document over the same varieties.  The normalized document is
formed from what the parser kept, on first read (``InputDocument``):
the analysis, the invariant checks and the graded summary never read it.

Field summary (all optional unless noted):

* "group": {"generators": int, "relators": [[signed 1-based ints]]}
* "mult_basis": [names], "mult_relations": [[rationals]]
* "varieties": list of {"name" (required), "g" (required), "points":
  [names], "relations": [[rationals]], "end_generators": [matrix],
  "end_action": [matrix], "dual": name, "dual_transfer": [matrix]}
* "motives" (required): list of {"name", "X_rank" (required),
  "Yv_rank" (required), "X_action": [matrix], "Yv_action": [matrix],
  "A": variety name, "v": [point name or coordinate row],
  "vstar": [...], "psi": [[exponent vector per (i, j)]]}
* "options": {"reductive_dim": int}

Point relations reduce the declared point space: with points (P1, P2)
and relation (-2, 1) (meaning -2 P1 + P2 = 0 up to torsion) the space
has dimension one and the stored coordinates of P1, P2 are canonical
images in the quotient.  Coordinate rows in "v"/"vstar" refer to this
reduced space.  "end_action" matrices act on the reduced space.  A dual
pair of distinct varieties has one endomorphism algebra, declared on
one side by "end_generators", "end_action" and a "dual_transfer" that
gives, per generator, the action on the point space of the dual, which
declares no algebra; with no algebra on either side both are Q.  A
self-dual variety acts by its own "end_action" and takes no transfer.
"""

import json
import math
from json.encoder import encode_basestring_ascii as _json_str

from .abelian import AbelianVarietyModel, EndAlgebraRep, PointVector, \
    link_duals
from .errors import UnreadableInputError, UnsupportedModelError, \
    ValidationError
from .exactlin import QuotientSpace, RatMatrix, _fraction_row, \
    _least, _ratio, _scaled, _stacked, _text_row
from .lattices import ActionGroup, GaloisLattice, TRIVIAL_GROUP
from .liealg import build_E
from .motive import OneMotive, _PsiForm, cartier_dual, gr, weight_filtration
from .multgroup import MultSpace
from .radical import radical_cartier_dual, unipotent_radical


def _fail(where, message):
    raise ValidationError("%s: %s" % (where, message))


def _items(value, where, what, length=None, unit="entries"):
    """The items of the JSON list ``value`` as (path, item) pairs.

    The path of item i is ``where[i]``.  A value that is not a list
    fails as "expected <what>"; where the schema fixes the length, a list
    of another length fails as "expected N <unit>, got M".
    """
    if type(value) is not list:
        _fail(where, "expected " + what)
    if length is not None and len(value) != length:
        _fail(where, "expected %d %s, got %d" % (length, unit, len(value)))
    return [("%s[%d]" % (where, i), item) for i, item in enumerate(value)]


def _build(where, constructor, *args, **kwargs):
    """``constructor(*args, **kwargs)`` on parsed data, with any
    ValueError it raises reported at ``where``.  UnsupportedModelError
    passes through: the data is valid, the model is out of scope."""
    try:
        return constructor(*args, **kwargs)
    except UnsupportedModelError:
        raise
    except ValueError as exc:
        _fail(where, str(exc))


def parse_rational(value, where):
    """(p, q), q > 0, for an int or a string of ``exactlin._ratio``."""
    if isinstance(value, bool):
        _fail(where, "expected a rational, got a boolean")
    if isinstance(value, int):
        return value, 1
    if isinstance(value, str):
        return _build(where, _ratio, value)
    _fail(where, "expected an integer or a 'p/q' string")


def _expect(value, kind, where, what):
    if not isinstance(value, kind) or isinstance(value, bool):
        _fail(where, "expected %s" % (what,))
    return value


def _parse_int(value, where, minimum=0):
    _expect(value, int, where, "an integer")
    if value < minimum:
        _fail(where, "must be >= %d" % (minimum,))
    return value


def _parse_row(value, where, length=None):
    """The list of rationals ``value`` as its least integer form."""
    if type(value) is list and length in (None, len(value)) and all(
            type(x) is int for x in value):
        return tuple(value), 1
    pairs = [parse_rational(x, path) for path, x in
             _items(value, where, "a list of rationals", length)]
    den = math.lcm(*(q for _, q in pairs))
    return _least([p * (den // q) for p, q in pairs], den)


def _rationals(ints, den):
    """The row ints/den: its ints when den is 1, else ``Fraction``s."""
    return ints if den == 1 else _fraction_row(ints, den)


def _parse_square_matrix(value, where, size):
    """A size x size matrix of rationals as its rows (``_rationals``)."""
    return tuple(_rationals(*_parse_row(row, path, size)) for path, row in
                 _items(value, where, "a matrix as a list of rows", size, "rows"))


def _parse_matrix_list(value, where, count, size):
    return tuple(_parse_square_matrix(m, path, size) for path, m in
                 _items(value, where, "a list of matrices", count, "matrices"))


def _check_keys(obj, where, allowed, required=()):
    _expect(obj, dict, where, "an object")
    for key in obj:
        if key not in allowed:
            _fail(where, "unknown field %r" % (key,))
    for key in required:
        if key not in obj:
            _fail(where, "missing required field %r" % (key,))


def _mat_json(rows):
    return [_text_row(row) for row in rows]


class InputDocument:
    """A parsed and validated document.

    ``motives`` holds (normalized entry, OneMotive) pairs in input
    order; ``normalized`` is the canonical dict form used for
    serialization, duals, and round-trip comparison.  Both are formed on
    first read, by ``normalize`` from what the parser kept:
    ``build_report``, ``check_invariants`` and ``gr_summary`` read only
    the motives (``_motives``), so analyze writes no text of the document.
    """

    def __init__(self, group, mult_space, varieties, motives, options,
                 normalize):
        self.group = group
        self.mult_space = mult_space
        self.varieties = varieties
        self._motives = motives
        self.options = options
        self._normalize, self._normalized = normalize, None

    @property
    def normalized(self):
        if self._normalized is None:
            self._normalized, self._normalize = self._normalize(), None
        return self._normalized

    @property
    def motives(self):
        return list(zip(self.normalized["motives"], self._motives))


def _parse_group(entry):
    where = "group"
    _check_keys(entry, where, {"generators", "relators"}, ("generators",))
    count = _parse_int(entry["generators"], where + ".generators")
    relators = [
        [_parse_int(k, path, minimum=-(10 ** 9)) for path, k in
         _items(word, wword, "a list of signed generator indices")]
        for wword, word in _items(entry.get("relators", []),
                                  where + ".relators", "a list of words")]
    return _build(where, ActionGroup, count, relators)


class _Variety:
    """One "varieties" entry, read on its own.  ``declared`` says whether
    it gives its own algebra; ``transfer`` holds the (path, matrix) items
    of its "dual_transfer".  ``_parse_varieties`` sets ``linked``, and the
    algebra and action of the dual of a declared algebra."""

    def __init__(self, where, entry):
        _check_keys(entry, where,
                    {"name", "g", "points", "relations", "end_generators",
                     "end_action", "dual", "dual_transfer"},
                    ("name", "g"))
        self.where, self.linked, self.transfer = where, False, None
        self.name = _expect(entry["name"], str, where + ".name", "a string")
        self.g = _parse_int(entry["g"], where + ".g", minimum=1)
        self.point_names = []
        for path, pname in _items(entry.get("points", []), where + ".points",
                                  "a list of names"):
            _expect(pname, str, path, "a string")
            if pname in self.point_names:
                _fail(path, "duplicate point name %r" % (pname,))
            self.point_names.append(pname)
        self.relations = [_parse_row(rel, path, len(self.point_names))
                          for path, rel in _items(entry.get("relations", []),
                                                  where + ".relations",
                                                  "a list of rows")]
        if self.relations and not self.point_names:
            _fail(where + ".relations", "relations need declared points")
        self.quotient = _build(where + ".relations", QuotientSpace,
                               len(self.point_names),
                               [row for row, _ in self.relations])
        self.algebra, self.action = None, ()
        self.declared = "end_generators" in entry
        if self.declared:
            path = where + ".end_generators"
            gens = _items(entry["end_generators"], path, "a list of matrices")
            if not gens:
                _fail(path, "need at least one matrix")
            degree = len(_items(gens[0][1], gens[0][0], "a matrix"))
            self.algebra = _build(path, EndAlgebraRep, degree, [
                RatMatrix.from_rows(_parse_square_matrix(m, at, degree))
                for at, m in gens])
            self.action = tuple(map(RatMatrix.from_rows, _parse_matrix_list(
                entry.get("end_action", []), where + ".end_action",
                len(gens), self.quotient.dim)))
        elif "end_action" in entry:
            _fail(where + ".end_action", "requires end_generators")
        self.dual_name = entry.get("dual")
        if self.dual_name is not None:
            _expect(self.dual_name, str, where + ".dual", "a string")
        if "dual_transfer" in entry:
            path = where + ".dual_transfer"
            if self.dual_name is None:
                _fail(path, "requires a dual link")
            if self.dual_name == self.name:
                _fail(path, "a self-dual variety takes no dual_transfer")
            if not self.declared:
                _fail(path, "requires end_generators")
            self.transfer = _items(entry["dual_transfer"], path,
                                   "a list of matrices", len(gens),
                                   "matrices")


def _parse_varieties(entries):
    """Models of the "varieties" list and the function that forms its
    normalized entries, in three passes: read each entry on its own
    (``_Variety``); resolve the dual links and give each pair its one
    algebra; build and link the models.  The function normalizes from the
    records when it is called.
    """
    records = {}
    for where, entry in _items(entries, "varieties", "a list"):
        rec = _Variety(where, entry)
        if rec.name in records:
            _fail(where + ".name", "duplicate variety name %r" % (rec.name,))
        records[rec.name] = rec

    pairs = []  # each pair once, the first side to name it (the primal) first
    for rec in records.values():
        if rec.dual_name is None or rec.linked:
            continue
        partner = records.get(rec.dual_name)
        if partner is None:
            _fail(rec.where + ".dual", "unknown variety %r" % (rec.dual_name,))
        if partner.dual_name not in (None, rec.name):
            _fail(rec.where + ".dual", "dual link of %r and %r is not "
                  "symmetric" % (rec.name, rec.dual_name))
        if partner.linked:
            _fail(rec.where + ".dual", "model %r is already linked to a "
                  "different dual" % (partner.name,))
        rec.linked = partner.linked = True
        pairs.append((rec, partner))
        owners = [p for p in (rec, partner) if p.declared]
        if partner is rec or not owners:
            continue
        source = next((p for p in owners if p.transfer), owners[0])
        if len(owners) == 2:
            _fail(source.where + (".dual_transfer" if source.transfer
                                  else ".end_generators"),
                  "the dual variety already declares its own algebra")
        target = partner if source is rec else rec
        if source.transfer is None:
            _fail(source.where + ".end_generators", "needs a dual_transfer: "
                  "the dual variety %r shares this algebra" % (target.name,))
        target.algebra = source.algebra
        target.action = tuple(
            RatMatrix.from_rows(_parse_square_matrix(m, path, target.quotient.dim))
            for path, m in source.transfer)

    models = {
        rec.name: _build(
            rec.where, AbelianVarietyModel, rec.name, rec.g,
            end_algebra=rec.algebra, point_space_dim=rec.quotient.dim,
            end_action=rec.action,
            tracked_points={pname: _rationals(*rec.quotient._coords(
                [int(i == j) for i in range(len(rec.point_names))], 1))
                for j, pname in enumerate(rec.point_names)})
        for rec in records.values()}
    for a, b in pairs:
        _build(a.where + ".dual", link_duals, models[a.name], models[b.name])

    def normalize():
        normalized = []
        for rec in sorted(records.values(), key=lambda rec: rec.name):
            out = {"name": rec.name, "g": rec.g}
            if rec.point_names:
                out["points"] = list(rec.point_names)
            if rec.relations:
                out["relations"] = [_text_row(*r) for r in rec.relations]
            if rec.declared:
                out["end_generators"] = [_mat_json(m.row_list())
                                         for m in rec.algebra.generators]
                out["end_action"] = [_mat_json(m.row_list())
                                     for m in rec.action]
            if rec.dual_name is not None:
                out["dual"] = rec.dual_name
            if rec.transfer is not None:
                out["dual_transfer"] = [_mat_json(m.row_list()) for m in
                                        records[rec.dual_name].action]
            normalized.append(out)
        return normalized

    return models, normalize


def _point_entry(value, model, where):
    """A "v"/"vstar" entry, a point name or a row, as its integer form."""
    if isinstance(value, str):
        return _build(where, model._point_form, value)
    return _parse_row(value, where, model.point_space_dim)


def _parse_motive(entry, where, group, mult_space, models):
    """The OneMotive of a "motives" entry, and the function that forms
    its normalized entry from what was parsed."""
    _check_keys(entry, where,
                {"name", "X_rank", "Yv_rank", "X_action", "Yv_action",
                 "A", "v", "vstar", "psi"},
                ("X_rank", "Yv_rank"))
    name = entry.get("name")
    if name is not None:
        _expect(name, str, where + ".name", "a string")
    r = _parse_int(entry["X_rank"], where + ".X_rank")
    s = _parse_int(entry["Yv_rank"], where + ".Yv_rank")

    def lattice(rank, key):
        path = "%s.%s" % (where, key)
        action = None
        if key in entry:
            action = _parse_matrix_list(entry[key], path,
                                        group.generator_count, rank)
        return _build(path, GaloisLattice, rank, action=action, group=group)

    x = lattice(r, "X_action")
    yv = lattice(s, "Yv_action")

    kwargs = {}
    if "A" in entry:
        a_name = _expect(entry["A"], str, where + ".A", "a string")
        if a_name not in models:
            _fail(where + ".A", "unknown variety %r" % (a_name,))
        a = models[a_name]
        if not a.has_dual:
            _fail(where + ".A",
                  "variety %r needs a dual link to serve as the abelian part"
                  % (a_name,))
        astar = a.dual
        kwargs, points = dict(A=a, Astar=astar), {}
        sides = [(k, m, _items(entry.get(k, []), where + "." + k, "a list", n))
                 for k, m, n in (("v", a, r), ("vstar", astar, s))]
        for key, model, items in sides:
            points[key] = [_point_entry(e, model, path) for path, e in items]
            kwargs[key] = PointVector._of_ints(model, *_stacked(points[key]))
    else:
        for key in ("v", "vstar"):
            path = "%s.%s" % (where, key)
            if key in entry and _items(entry[key], path, "a list"):
                _fail(path, "given but the motive declares no abelian part")

    psi = raw_psi = None
    if "psi" in entry:
        width = len(mult_space.generator_names)
        raw_psi = [[_parse_row(vec, path, width) for path, vec in
                    _items(row, wrow, "a list of exponent vectors", s)]
                   for wrow, row in _items(entry["psi"], where + ".psi",
                                           "a list of rows", r, "rows")]
        psi = _psi_form([mult_space.quotient._coords(*vec)
                         for row in raw_psi for vec in row], mult_space.dim)

    motive = _build(where, OneMotive, x, yv, psi=psi, mult_space=mult_space,
                    name=name, **kwargs)

    def normalize():
        normalized = {"X_rank": r, "Yv_rank": s}
        if name is not None:
            normalized["name"] = name
        if "X_action" in entry:
            normalized["X_action"] = list(map(_mat_json, x.integer_action))
        if "Yv_action" in entry:
            normalized["Yv_action"] = list(map(_mat_json, yv.integer_action))
        if "A" in entry:
            normalized["A"] = entry["A"]
            for key, _, items in sides:
                normalized[key] = [e if isinstance(e, str) else _text_row(*p)
                                   for (_, e), p in zip(items, points[key])]
        if raw_psi is not None:
            normalized["psi"] = [[_text_row(*vec) for vec in row]
                                 for row in raw_psi]
        return normalized

    return motive, normalize


def _psi_form(values, mu):
    """psi as the motive holds it (``motive._PsiForm``), from the least
    integer forms (ints, den) of its values psi[i][j], listed at i*s + j:
    row k holds their k-th coordinates over one least den, their lcm."""
    ints, den = _stacked(values)
    return _PsiForm((tuple(zip(*ints)) if ints else ((),) * mu, den))


def parse_input(text):
    """Parse and validate a JSON document string."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        raise
    except RecursionError:
        raise UnreadableInputError("JSON nested too deeply to decode") from None
    except ValueError as exc:  # an integer literal past int's digit limit
        raise UnreadableInputError(str(exc)) from None
    _check_keys(data, "document",
                {"group", "mult_basis", "mult_relations", "varieties",
                 "motives", "options"},
                ("motives",))

    group = TRIVIAL_GROUP
    if "group" in data:
        group = _parse_group(data["group"])

    names = [_expect(n, str, path, "a string") for path, n in
             _items(data.get("mult_basis", []), "mult_basis",
                    "a list of names")]
    relations = [_parse_row(rel, path, len(names)) for path, rel in
                 _items(data.get("mult_relations", []), "mult_relations",
                        "a list of rows")]
    if relations and not names:
        _fail("mult_relations", "relations need mult_basis generators")
    mult_space = _build("mult_basis", MultSpace, names,
                        [row for row, _ in relations])

    models, varieties_json = _parse_varieties(data.get("varieties", []))

    motives = [_parse_motive(entry, where, group, mult_space, models)
               for where, entry in _items(data["motives"], "motives",
                                          "a list")]

    options = {}
    if "options" in data:
        _check_keys(data["options"], "options", {"reductive_dim"})
        if "reductive_dim" in data["options"]:
            options["reductive_dim"] = _parse_int(
                data["options"]["reductive_dim"], "options.reductive_dim")

    def normalize():
        normalized = {}
        if group is not TRIVIAL_GROUP:
            normalized["group"] = {
                "generators": group.generator_count,
                "relators": [list(w) for w in group.relators],
            }
        if names:
            normalized["mult_basis"] = names
        if relations:
            normalized["mult_relations"] = [_text_row(*r) for r in relations]
        varieties = varieties_json()
        if varieties:
            normalized["varieties"] = varieties
        normalized["motives"] = [entry() for _, entry in motives]
        if options:
            normalized["options"] = dict(options)
        return normalized

    return InputDocument(group, mult_space, models, [m for m, _ in motives],
                         options, normalize)


def load_input(path):
    with open(path, "r", encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise UnreadableInputError("not UTF-8 text: %s" % (exc,)) from None
    return parse_input(text)


def serialize_document(payload):
    """Deterministic JSON text for a document or report dict.

    The text is that of ``json.dumps(payload, sort_keys=True, indent=2)``
    plus a newline, written here because with ``indent`` set ``json``
    runs its pure-Python encoder.  Payloads hold dicts with str keys,
    lists, str, int, bool and None; any other value raises TypeError.
    A list met again at the same indent reuses the chunks of its first text.
    """
    chunks = []
    _write_json(payload, "\n", chunks, {})
    chunks.append("\n")
    return "".join(chunks)


# The text of each dict key with its separator, formed once: the keys come
# from the fixed schemas of documents and reports.
_KEY_TEXT = {}


def _write_json(value, newline, chunks, spans):
    """Append ``value`` as indented JSON to ``chunks``; ``newline`` ends its
    line and indents.  ``spans`` maps id(list) to (newline, start, end), its
    slice of ``chunks``; the payload keeps each list alive, so ids are safe.
    The loop over a dict or a mixed list writes each str, int or None item,
    and each list already written at its indent, with no call of its own."""
    kind = type(value)
    if value is None:
        chunks.append("null")
    elif kind is bool:
        chunks.append("true" if value else "false")
    elif kind is list or kind is not dict and isinstance(value, list):
        if not value:
            chunks.append("[]")
            return
        span = spans.get(id(value))
        if span is not None and span[0] == newline:
            chunks.extend(chunks[span[1]:span[2]])
            return
        start, inner = len(chunks), newline + "  "
        separator = "," + inner
        try:
            joined = "".join(value) if type(value[0]) is str else None
        except TypeError:  # a mixed list: write it item by item
            joined = None
        if joined is None:
            lead = "[" + inner
            for item in value:
                chunks.append(lead)
                lead = separator
                kind = type(item)
                if kind is str:
                    chunks.append(_json_str(item))
                elif kind is int:
                    chunks.append(int.__repr__(item))
                elif item is None:
                    chunks.append("null")
                elif kind is list and (span := spans.get(id(item))) \
                        and span[0] == inner:
                    chunks.extend(chunks[span[1]:span[2]])
                else:
                    _write_json(item, inner, chunks, spans)
            chunks.append(newline + "]")
        elif len(_json_str(joined)) == len(joined) + 2:  # nothing to escape
            chunks.append('[%s"%s"%s]' % (
                inner, ('"' + separator + '"').join(value), newline))
        else:
            chunks.append("[%s%s%s]" % (
                inner, separator.join(map(_json_str, value)), newline))
        spans[id(value)] = (newline, start, len(chunks))
    elif kind is dict or isinstance(value, dict):
        if not value:
            chunks.append("{}")
            return
        inner = newline + "  "
        lead = "{" + inner
        for key in sorted(value):
            text = _KEY_TEXT.get(key)
            if text is None:
                if not isinstance(key, str):
                    raise TypeError("keys must be str, not %s"
                                    % (type(key).__name__,))
                text = _KEY_TEXT[key] = _json_str(key) + ": "
            chunks.append(lead + text)
            lead = "," + inner
            item = value[key]
            kind = type(item)
            if kind is str:
                chunks.append(_json_str(item))
            elif kind is int:
                chunks.append(int.__repr__(item))
            elif item is None:
                chunks.append("null")
            elif kind is list and (span := spans.get(id(item))) \
                    and span[0] == inner:
                chunks.extend(chunks[span[1]:span[2]])
            else:
                _write_json(item, inner, chunks, spans)
        chunks.append(newline + "}")
    elif isinstance(value, str):
        chunks.append(_json_str(value))
    elif isinstance(value, int):
        chunks.append(int.__repr__(value))
    else:
        raise TypeError("Object of type %s is not JSON serializable"
                        % (type(value).__name__,))


def dual_document(doc):
    """The Cartier-dual document: swapped roles, same varieties and names."""
    out = {key: value for key, value in doc.normalized.items()
           if key != "motives"}
    out_motives = []
    for entry, motive in doc.motives:
        dual_entry = {
            "X_rank": entry["Yv_rank"],
            "Yv_rank": entry["X_rank"],
        }
        if "name" in entry:
            dual_entry["name"] = entry["name"]
        if "Yv_action" in entry:
            dual_entry["X_action"] = entry["Yv_action"]
        if "X_action" in entry:
            dual_entry["Yv_action"] = entry["X_action"]
        if "A" in entry:
            dual_entry["A"] = motive.Astar.name
            dual_entry["v"] = list(entry["vstar"])
            dual_entry["vstar"] = list(entry["v"])
        if "psi" in entry:
            rows = entry["psi"]
            dual_entry["psi"] = [[rows[i][j] for i in range(len(rows))]
                                 for j in range(motive.s)]
        out_motives.append(dual_entry)
    out["motives"] = out_motives
    return out


def _basis_json(space):
    return [_text_row(row, space.den) for row in space.ints]


def _rows_json(rows, texts, den=1):
    """Each row over den as a list of strings (``_text_row``), one list per
    row object and den."""
    out = []
    for row in rows:
        key = id(row) if den == 1 else (id(row), den)
        text = texts.get(key)
        if text is None:
            text = texts[key] = _text_row(row, den)
        out.append(text)
    return out


def _points_json(points, texts):
    if points is None:
        return None
    ints, den = points.integer_coords()
    return _rows_json(ints, texts, den)


def _bracket_json(data, texts):
    table = []
    for (l, p, q), mat in sorted(data.bracket.coefficients.items()):
        table.append({
            "component": l,
            "left_block": p,
            "right_block": q,
            "matrix": _rows_json(map(mat.row, range(mat.rows)), texts),
        })
    return table


def _gr_json(motive):
    """The ranks and the abelian part of a motive's graded pieces."""
    return {
        "X_rank": motive.r,
        "A": motive.A.name if motive.A is not None else None,
        "A_dim": motive.g,
        "Y_rank": motive.s,
    }


def analyze_motive(motive, reductive_dim=None):
    """All computed data for one motive, as a JSON-ready dict."""
    weights = weight_filtration(motive)
    pieces = gr(motive)
    end_data = build_E(pieces)
    report = unipotent_radical(motive, reductive_dim=reductive_dim)
    dual_data = radical_cartier_dual(report)
    # Each shared object is formatted once: the extension characters are
    # Z's rows, Z1 may be Z, and the dual may reuse the extension.  So is
    # each point or matrix row, by id: end_data, report and dual_data hold it.
    texts = {}
    ext = report.extension
    z_basis = _basis_json(report.z)
    astar = [_points_json(p, texts) for p in ext.astar_values]
    a = [_points_json(p, texts) for p in ext.a_values]
    dual_chars, dual_astar, dual_a = z_basis, astar, a
    if dual_data.extension is not ext:
        dual_chars = [_text_row(c) for c in dual_data.characters]
        dual_astar = [_points_json(p, texts) for p in dual_data.astar_values]
        dual_a = [_points_json(p, texts) for p in dual_data.a_values]

    payload = {
        "name": motive.name,
        "weights": {
            "w0_rank": motive.r,
            "wm1_dim": weights.dim_wm1,
            "wm2_dim": weights.dim_wm2,
        },
        "gr": _gr_json(motive),
        "E": {
            "em1_dim": (motive.r + motive.s) * motive.g,
            "em2_rank": end_data.em2.rank,
            "bracket": _bracket_json(end_data, texts),
        },
        "b": {
            "b1": _points_json(report.b1, texts),
            "b2": _points_json(report.b2, texts),
        },
        "B": {
            "w_a_basis": _basis_json(report.b.w_a.module)
            if report.b.w_a is not None else None,
            "w_astar_basis": _basis_json(report.b.w_astar.module)
            if report.b.w_astar is not None else None,
            "dim_B": report.dim_B,
        },
        "Z": {
            "z1_basis": z_basis if report.z1 is report.z
            else _basis_json(report.z1),
            "z1_dim": report.z1.dim,
            "z_basis": z_basis,
            "dim_Z": report.dim_Z,
            "quasi_deficient": report.quasi_deficient,
            "derived_dim": report.derived_dim,
        },
        "extension": [
            {"character": char, "astar_points": p, "a_points": q}
            for char, p, q in zip(z_basis, astar, a)
        ],
        "dims": {
            "dim_B": report.dim_B,
            "dim_Z": report.dim_Z,
            "dim_unipotent": report.dim_unipotent,
            "reductive_dim": report.reductive_dim,
            "total_dim": report.total_dim,
        },
        "dual_radical": {
            "Zv_rank": dual_data.lattice.rank,
            "Zv_action": [_rows_json(m, texts)
                          for m in dual_data.lattice.integer_action],
            "characters": dual_chars,
            "V_astar": dual_astar,
            "V_a": dual_a,
            "expressible": report.dim_B == 0,
        },
    }
    return payload, report


def build_report(doc, reductive_dim=None):
    """Analyze every motive of a document, in input order."""
    effective = reductive_dim
    if effective is None:
        effective = doc.options.get("reductive_dim")
    if effective is not None and effective < 0:
        _fail("reductive_dim", "must be >= 0")
    return {"reports": [analyze_motive(motive, reductive_dim=effective)[0]
                        for motive in doc._motives]}


def report_text(report):
    """Human-readable rendering of a report dict."""
    lines = []
    for i, entry in enumerate(report["reports"]):
        name = entry["name"] if entry["name"] is not None else "#%d" % (i,)
        grd = entry["gr"]
        lines.append("motive %s" % (name,))
        lines.append("  weights: W0 rank %d; W-1 dim %d; W-2 dim %d"
                     % (entry["weights"]["w0_rank"],
                        entry["weights"]["wm1_dim"],
                        entry["weights"]["wm2_dim"]))
        lines.append("  gr: X rank %d; A = %s (dim %d); Y rank %d"
                     % (grd["X_rank"], grd["A"] or "0", grd["A_dim"],
                        grd["Y_rank"]))
        lines.append("  E: E-1 dim %d; E-2 rank %d; bracket entries %d"
                     % (entry["E"]["em1_dim"], entry["E"]["em2_rank"],
                        len(entry["E"]["bracket"])))
        lines.append("  B: dim %d" % (entry["B"]["dim_B"],))
        lines.append("  Z1: dim %d (quasi-deficient: %s)"
                     % (entry["Z"]["z1_dim"],
                        "yes" if entry["Z"]["quasi_deficient"] else "no"))
        z_basis = ", ".join("(%s)" % ", ".join(vec)
                            for vec in entry["Z"]["z_basis"])
        lines.append("  Z: dim %d%s"
                     % (entry["Z"]["dim_Z"],
                        "; basis %s" % (z_basis,) if z_basis else ""))
        dims = entry["dims"]
        total = dims["total_dim"]
        lines.append(
            "  dim Lie = dim B (%d) + dim Z (%d) + reductive (%s)%s"
            % (dims["dim_B"], dims["dim_Z"],
               dims["reductive_dim"],
               " = %d" % (total,) if total is not None else ""))
        lines.append("  dual radical: [Z^v rank %d -> B* dim %d]"
                     % (entry["dual_radical"]["Zv_rank"],
                        entry["B"]["dim_B"]))
    return "\n".join(lines) + "\n"


def gr_summary(doc):
    """Graded-pieces summary for every motive of a document."""
    return {"gr": [dict(name=motive.name, **_gr_json(motive))
                   for motive in doc._motives]}


def gr_text(summary):
    lines = []
    for i, entry in enumerate(summary["gr"]):
        name = entry["name"] if entry["name"] is not None else "#%d" % (i,)
        lines.append("motive %s: X rank %d; A = %s (dim %d); Y rank %d"
                     % (name, entry["X_rank"], entry["A"] or "0",
                        entry["A_dim"], entry["Y_rank"]))
    return "\n".join(lines) + "\n"


def _scaled_motive(m, n):
    """The isogenous copy with v, v* scaled by n and psi by n^2.

    The integer forms are scaled (``exactlin._scaled``), so no
    ``Fraction`` is built; the copy's ``coords`` and ``psi`` are, on first
    read.  Built unchecked (``OneMotive._of``, ``PointVector._of_ints``):
    every check on a motive is linear in (v, v*, psi) or about shapes, m's
    own, so the copy passes.
    """
    v = vstar = None
    if m.A is not None:
        v, vstar = (PointVector._of_ints(p.variety, *_scaled(p.integer_coords(), n))
                    for p in (m.v, m.vstar))
    return OneMotive._of(m.X, m.Yv, m.A, m.Astar, v, vstar,
                         _scaled(m.psi_integer_rows(), n * n), m.mult_space)


def _witness(space, other):
    """A basis vector of ``space`` that ``other`` does not contain, as
    text, or None."""
    for vec in space.basis_columns():
        if not other.contains(vec):
            return "(" + ", ".join(map(str, vec)) + ")"
    return None


def _moved(name, before, after):
    """Why ``after`` differs from ``before``: a witness in one, not the other."""
    vec = _witness(after, before)
    if vec is not None:
        return "%s lies in the scaled %s and not in %s" % (vec, name, name)
    return "%s lies in %s and not in the scaled %s" % (
        _witness(before, after), name, name)


def check_invariants(doc):
    """Property checks on every motive; returns failure messages.

    Per motive: dim U = dim B + dim Z, Z1 inside Z, equal dimensions for
    the Cartier dual, the double dual equal to the motive, and the same
    Z1, Z, W_A and W_A* for the copy with (v, v*, psi) scaled by
    (2, 2, 4), an isogeny.  A failure names the subspace and gives a
    witness vector that lies in one space and not in the other.  The
    duals and the scaled copy are derived from a motive that passed the
    entry checks, and are built without checking them again
    (``OneMotive._of``).
    """
    failures = []
    for index, motive in enumerate(doc._motives):
        label = motive.name or "motives[%d]" % (index,)
        report = unipotent_radical(motive)
        if report.dim_unipotent != report.dim_B + report.dim_Z:
            failures.append("%s: dim_unipotent is not dim_B + dim_Z"
                            % (label,))
        if not report.z.contains_space(report.z1):
            failures.append("%s: Z1 is not contained in Z: %s lies in Z1 "
                            "and not in Z"
                            % (label, _witness(report.z1, report.z)))
        dual = cartier_dual(motive)
        dual_report = unipotent_radical(dual)
        if (report.dim_B, report.dim_Z) != \
                (dual_report.dim_B, dual_report.dim_Z):
            failures.append("%s: dual motive reports different dims"
                            % (label,))
        if not motive.structurally_equal(cartier_dual(dual)):
            failures.append("%s: double dual differs from the motive"
                            % (label,))
        scaled = unipotent_radical(_scaled_motive(motive, 2))
        pairs = [("Z1", report.z1, scaled.z1), ("Z", report.z, scaled.z)]
        if motive.A is not None:
            pairs += [("W_A", report.b.w_a.module, scaled.b.w_a.module),
                      ("W_A*", report.b.w_astar.module,
                       scaled.b.w_astar.module)]
        for name, before, after in pairs:
            if before != after:
                failures.append("%s: scaling (v, v*, psi) by (2, 2, 4) "
                                "moved %s: %s"
                                % (label, name, _moved(name, before, after)))
    return failures
