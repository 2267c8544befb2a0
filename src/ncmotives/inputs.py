"""Description-file ingestion.

Input files are JSON documents with a top-level "kind" field: "quiver",
"structure_constants", or "category_presentation".  Every rational number
is written as a string "p/q" (or "p"), so ingestion is bit-exact; nothing
is ever parsed through floating point.
"""

import json
from fractions import Fraction

from .errors import InvariantError, ParseInputError
from .exactlin import _norm
from .algebras import Quiver, path_algebra, structure_algebra


def _frac(s):
    try:
        return Fraction(str(s))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseInputError("bad rational %r: %s" % (s, exc))


def _int(value):
    """value as an int: a JSON integer, or a string of ASCII decimal digits
    with an optional leading minus.  A bool, a JSON float (int() would cut
    2.7 to 2) or any other string (int() would read "0_2" as 2, "+3" as 3
    and the Arabic-Indic digit "\u0664" as 4) is refused."""
    if type(value) is int:
        return value
    digits = value.removeprefix("-") if isinstance(value, str) else ""
    if digits.isascii() and digits.isdigit():
        return int(value)
    raise ValueError("%r is not an integer" % (value,))


def _frac_vec(d):
    """A sparse vector; integral coefficients come back as ints."""
    return {_int(k): _norm(_frac(v)) for k, v in d.items()}


def _require_arrays(doc, keys):
    """Refuse a document whose fields keys, where present, are not lists."""
    for key in keys:
        if not isinstance(doc.get(key, []), list):
            raise ParseInputError("%r must be a JSON array, got %s"
                                  % (key, type(doc[key]).__name__))


def _array(item):
    """item, refused unless it is a JSON array: a string in its place would
    be read character by character."""
    if not isinstance(item, list):
        raise TypeError("%r is not a JSON array" % (item,))
    return item


def load_document(path):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseInputError("cannot read %s: %s" % (path, exc))
    except json.JSONDecodeError as exc:
        raise ParseInputError("%s is not valid JSON: %s" % (path, exc))
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ParseInputError("document needs a top-level 'kind' field")
    return doc


def load_algebra(path):
    doc = load_document(path)
    kind = doc["kind"]
    if kind == "quiver":
        return _algebra_from_quiver(doc)
    if kind == "structure_constants":
        return _algebra_from_constants(doc)
    raise ParseInputError("kind %r is not an algebra description" % kind)


def _algebra_from_quiver(doc):
    _require_arrays(doc, ("vertices", "arrows", "relations"))
    try:
        vertices = [str(v) for v in doc["vertices"]]
        arrows = [(str(n), str(s), str(t))
                  for n, s, t in map(_array, doc.get("arrows", []))]
        truncation = _int(doc["truncation"])
        relations = []
        for rel in doc.get("relations", []):
            relations.append([(_frac(c), [str(a) for a in _array(names)])
                              for c, names in map(_array, _array(rel))])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseInputError("malformed quiver description: %s" % exc)
    if truncation < 1:
        raise ParseInputError("truncation must be >= 1, got %d" % truncation)
    unknown = ({n for rel in relations for _, names in rel for n in names}
               - {n for n, _, _ in arrows})
    if unknown:
        raise ParseInputError("relations name unknown arrow(s): %s"
                              % ", ".join(sorted(unknown)))
    try:
        quiver = Quiver(vertices, arrows)
    except InvariantError as exc:
        raise ParseInputError("malformed quiver: %s" % exc)
    return path_algebra(quiver, relations, truncation,
                        name=doc.get("name", "quiver algebra"))


def _algebra_from_constants(doc):
    _require_arrays(doc, ("basis", "products"))
    try:
        basis = [str(b) for b in doc["basis"]]
        unit = {str(k): _frac(v) for k, v in doc["unit"].items()}
        products = []
        for left, right, value in doc.get("products", []):
            products.append((str(left), str(right),
                             {str(k): _frac(v) for k, v in value.items()}))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ParseInputError("malformed structure-constant description: %s"
                              % exc)
    if not basis or len(set(basis)) != len(basis):
        raise ParseInputError("basis must list distinct labels, at least one")
    unknown = (set(unit) | {lab for left, right, value in products
                            for lab in (left, right, *value)}) - set(basis)
    if unknown:
        raise ParseInputError("unknown basis label(s): %s"
                              % ", ".join(sorted(unknown)))
    return structure_algebra(doc.get("name", "algebra"), basis, unit,
                             products)


def load_category(path):
    """Returns (category, invertible or None)."""
    from .categories import (PresentedCategory, TensorInvertible,
                             _label_sections)
    doc = load_document(path)
    if doc["kind"] != "category_presentation":
        raise ParseInputError("kind %r is not a category presentation"
                              % doc["kind"])
    try:
        objects = [str(o) for o in _array(doc["objects"])]
        unit = str(doc["unit"])
        hom = {}
        for key, d in doc["hom"].items():
            x, y = key.split("|")
            hom[(x, y)] = _int(d)
            if hom[(x, y)] < 0:
                raise ParseInputError("hom %s has negative dimension %d"
                                      % (key, hom[(x, y)]))
        comp = {}
        for x, y, z, gi, fi, vec in map(_array,
                                        _array(doc.get("composition", []))):
            comp.setdefault((str(x), str(y), str(z)), {})[
                (_int(gi), _int(fi))] = _frac_vec(vec)
        ident = {str(x): _frac_vec(v) for x, v in doc["identities"].items()}
        tensor_obj = {}
        for x, y, z in map(_array, _array(doc.get("tensor_objects", []))):
            tensor_obj[(str(x), str(y))] = str(z)
        tensor_mor = {}
        for x1, y1, x2, y2, fi, gi, vec in map(
                _array, _array(doc.get("tensor_morphisms", []))):
            tensor_mor.setdefault(
                (str(x1), str(y1), str(x2), str(y2)), {})[
                    (_int(fi), _int(gi))] = _frac_vec(vec)
        symmetry = {}
        for x, y, vec in map(_array, _array(doc.get("symmetry", []))):
            symmetry[(str(x), str(y))] = _frac_vec(vec)
        traces = {str(x): _frac_vec(v)
                  for x, v in doc.get("traces", {}).items()}
        grading = {str(x): v for x, v in doc.get("grading", {}).items()}
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ParseInputError("malformed category presentation: %s" % exc)
    cat = PresentedCategory(objects, hom, comp, ident, unit, tensor_obj,
                            tensor_mor, symmetry, traces, grading,
                            name=doc.get("name", "category"), check=False)
    _check_object_names(objects, _label_sections(cat))
    cat.check()
    inv = None
    if "invertible" in doc:
        decl = doc["invertible"]
        try:
            obj, inverse = str(decl["object"]), str(decl["inverse"])
            bound = _int(decl["bound"])
            restrict_to = [str(o) for o in _array(decl["restrict_to"])] \
                if "restrict_to" in decl else None
        except KeyError as exc:
            raise ParseInputError("invertible declaration missing %s" % exc)
        except (TypeError, ValueError) as exc:
            raise ParseInputError("malformed invertible declaration: %s"
                                  % exc)
        _check_object_names(objects, [
            ("invertible", [obj, inverse] + (restrict_to or []))])
        inv = TensorInvertible(cat, obj, inverse, bound,
                               restrict_to=restrict_to)
    return cat, inv


def _check_object_names(objects, sections):
    """Refuse a presentation whose sections name objects outside the
    declared list; sections are (field name, names) pairs.  The wording is
    PresentedCategory.check's, which refuses the same with InvariantError."""
    from .categories import _unknown_object_names
    message = _unknown_object_names(objects, sections)
    if message:
        raise ParseInputError(message)
