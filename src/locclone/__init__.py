"""Local-cloning verification toolkit for three-qubit GHZ and W states.

Importing the package loads none of its modules; import the one you need:

* exact: the numpy-free core: errors, cuts, gate records, GHZ labels, label parsers;
* registers: state vectors, the dense circuit reference, partial trace and transpose;
* states: the GHZ and W bases, the W-class state and label parsing;
* wclass: one W-class state on plain floats: parameters, cut spectra, certificate;
* measures: cut entropy, negativity and the W-class spectra over parameter arrays;
* ghz_cloning: GHZ cloning circuits and the Bell-triple witness;
* w_audit: the W pair taxonomy, negativity audits and the simplex scan;
* report: the report document and its table, json and csv forms;
* cli: the command line, which imports each analysis only for the commands that run it.
"""

__version__ = "0.1.0"
